// Content-addressed result cache of the simulation service.
//
// Completed jobs store their CANONICAL RunResult document (see
// RunResult::to_json(canonical)) keyed by the run fingerprint — the hash of
// everything that determines the result and nothing that doesn't
// (analysis/driver.h run_fingerprint). Because the canonical document is a
// pure function of the fingerprinted inputs, serving a cached document is
// indistinguishable from re-running the job: resubmitting an identical
// request returns byte-identical bytes instantly, with zero engine events.
//
// Documents are immutable and shared, never copied: an entry holds a
// reference to the same bytes as every job that computed or was answered
// with it, so a document costs its bytes once however many jobs serve it,
// and evicting an entry frees nothing a job still holds.
//
// Bounded LRU by total byte size (documents vary from hundreds of bytes to
// megabytes for long sweeps, so an entry-count bound would be meaningless).
// All methods are thread-safe; hit/miss/eviction counters feed the stats
// verb.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace semsim {

/// One canonical document, shared read-only by the cache and every job
/// that serves it.
using SharedDocument = std::shared_ptr<const std::string>;

class ResultCache {
 public:
  /// `max_bytes` counts document payload bytes; 0 disables caching (every
  /// lookup misses, inserts are dropped).
  explicit ResultCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// The stored document for `fingerprint` (the entry's own object), or
  /// null; refreshes its recency and counts a hit or a miss.
  SharedDocument lookup(std::uint64_t fingerprint);

  /// Stores the non-null `document` under `fingerprint` (replacing any
  /// previous entry), then evicts least-recently-used entries until the
  /// byte budget holds. A document larger than the whole budget is not
  /// cached at all. Returns the object to keep: the previous entry's when
  /// it held the same bytes (so every holder shares one copy), else
  /// `document`.
  SharedDocument insert(std::uint64_t fingerprint, SharedDocument document);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    SharedDocument document;
  };

  mutable std::mutex mu_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  /// Most-recently-used first; `index_` points into this list.
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t insertions_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace semsim
