#include "serve/cache.h"

namespace semsim {

SharedDocument ResultCache::lookup(std::uint64_t fingerprint) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->document;
}

SharedDocument ResultCache::insert(std::uint64_t fingerprint,
                                   SharedDocument document) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (document->size() > max_bytes_) return document;  // max_bytes_ == 0 too
  const auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    Entry& entry = *it->second;
    bytes_ -= entry.document->size();
    // The same bytes again (a replayed or recomputed document): keep the
    // stored object, so its holders and the caller share one copy.
    if (*entry.document == *document) document = entry.document;
    entry.document = document;
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{fingerprint, document});
    index_.emplace(fingerprint, lru_.begin());
  }
  bytes_ += document->size();
  ++insertions_;
  while (bytes_ > max_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.document->size();
    index_.erase(victim.fingerprint);
    lru_.pop_back();
    ++evictions_;
  }
  return document;
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.max_bytes = max_bytes_;
  return s;
}

}  // namespace semsim
