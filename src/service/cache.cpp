#include "service/cache.hpp"

#include <cstring>
#include <functional>

namespace hb {

QueryCache::QueryCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity == 0 ? 1 : capacity),
      shards_(shards == 0 ? 1 : shards) {
  per_shard_ = (capacity_ + shards_.size() - 1) / shards_.size();
  if (per_shard_ == 0) per_shard_ = 1;
}

std::string_view QueryCache::make_key(std::uint64_t snapshot_id,
                                      std::string_view canonical, KeyBuf& kb) {
  char digits[20];
  std::size_t nd = 0;
  do {
    digits[nd++] = static_cast<char>('0' + snapshot_id % 10);
    snapshot_id /= 10;
  } while (snapshot_id != 0);
  const std::size_t total = nd + 1 + canonical.size();
  if (total <= sizeof kb.buf) {
    char* p = kb.buf;
    for (std::size_t i = 0; i < nd; ++i) *p++ = digits[nd - 1 - i];
    *p++ = '\0';
    if (!canonical.empty()) std::memcpy(p, canonical.data(), canonical.size());
    return std::string_view(kb.buf, total);
  }
  kb.overflow.clear();
  kb.overflow.reserve(total);
  for (std::size_t i = 0; i < nd; ++i) {
    kb.overflow.push_back(digits[nd - 1 - i]);
  }
  kb.overflow.push_back('\0');
  kb.overflow.append(canonical);
  return kb.overflow;
}

QueryCache::Shard& QueryCache::shard_of(std::string_view key) {
  return shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

std::shared_ptr<const QueryResult> QueryCache::lookup(std::string_view key) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return nullptr;
  s.lru.splice(s.lru.begin(), s.lru, it->second);
  return it->second->result;
}

void QueryCache::insert(std::string_view key,
                        std::shared_ptr<const QueryResult> result) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.index.find(key);
  if (it != s.index.end()) {
    it->second->result = std::move(result);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.push_front(Entry{std::string(key), std::move(result)});
  s.index.emplace(s.lru.front().key, s.lru.begin());
  while (s.lru.size() > per_shard_) {
    s.index.erase(s.lru.back().key);
    s.lru.pop_back();
  }
}

void QueryCache::clear() {
  for (Shard& s : shards_) {
    // Swap each shard's contents out under its lock and free them after it
    // is released, so readers never wait on the entries' teardown.  The
    // replacement index gets its buckets here, outside the lock too.
    std::list<Entry> lru;
    Index index;
    index.reserve(per_shard_);
    {
      std::lock_guard<std::mutex> lock(s.mutex);
      s.lru.swap(lru);
      s.index.swap(index);
    }
  }
}

std::size_t QueryCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mutex);
    n += s.lru.size();
  }
  return n;
}

}  // namespace hb
