// Query-result cache: sharded LRU keyed on (snapshot id, canonical query).
//
// Only successful read replies are cached.  Because the key embeds the
// snapshot id, entries for superseded snapshots can never be served stale;
// they are also useless, so publication clears the whole cache rather than
// letting dead entries age out through the LRU chain.
//
// Sharding by key hash keeps the per-shard mutexes short-lived: concurrent
// readers touching different queries rarely contend.
//
// The hot path is allocation-free: make_key renders into a caller-owned
// KeyBuf, lookup takes a string_view and returns a shared_ptr to the
// immutable cached result (one refcount bump, no copy).  Entries are
// immutable once inserted, so concurrent readers can hold the same result
// while the shard lock is long released.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/query.hpp"

namespace hb {

class QueryCache {
 public:
  /// `capacity` is the total entry budget, split evenly across shards.
  explicit QueryCache(std::size_t capacity = 1024, std::size_t shards = 8);

  /// Scratch for make_key: the common key renders into the fixed buffer;
  /// oversized canonicals spill into the overflow string (which then keeps
  /// its capacity across reuses).
  struct KeyBuf {
    char buf[192];
    std::string overflow;
  };

  /// Render the cache key for (snapshot_id, canonical) into `kb` and view
  /// it — byte-identical to key(), without the allocation.
  static std::string_view make_key(std::uint64_t snapshot_id,
                                   std::string_view canonical, KeyBuf& kb);

  static std::string key(std::uint64_t snapshot_id, const std::string& canonical) {
    return std::to_string(snapshot_id) + '\0' + canonical;
  }

  /// The cached result, or null on a miss; a hit refreshes the entry's LRU
  /// rank.  The returned result is immutable and safe to hold indefinitely.
  std::shared_ptr<const QueryResult> lookup(std::string_view key);

  /// Insert or refresh; evicts the shard's least recently used entry when
  /// the shard is full.
  void insert(std::string_view key, std::shared_ptr<const QueryResult> result);

  /// Copying compatibility shims over the shared_ptr core.
  bool lookup(const std::string& key, QueryResult* out) {
    const std::shared_ptr<const QueryResult> r = lookup(std::string_view(key));
    if (r == nullptr) return false;
    *out = *r;
    return true;
  }
  void insert(const std::string& key, const QueryResult& result) {
    insert(std::string_view(key), std::make_shared<const QueryResult>(result));
  }

  /// Drop everything (called on snapshot publication).  The dropped
  /// entries are destroyed on the calling thread outside the shard locks.
  void clear();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryResult> result;
  };
  // Transparent hash/eq so lookups hash the caller's string_view directly.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };
  using Index =
      std::unordered_map<std::string, std::list<Entry>::iterator, KeyHash, KeyEq>;
  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  // front = most recently used
    Index index;
  };

  Shard& shard_of(std::string_view key);

  std::size_t capacity_;
  std::size_t per_shard_;
  std::vector<Shard> shards_;
};

}  // namespace hb
