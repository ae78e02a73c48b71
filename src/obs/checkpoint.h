// Crash-safe checkpoint/resume for long Monte-Carlo runs (semsim_obs).
//
// Two layers:
//
//   * BinaryWriter / BinaryReader — a tiny length-prefixed little-endian
//     binary codec. Every variable-length field carries its own length, so
//     a truncated or bit-flipped file fails loudly (Error) instead of
//     decoding garbage.
//
//   * RunCheckpoint — a versioned snapshot file holding one opaque payload
//     per completed WORK UNIT of a run (sweep chunks, repeat seeds,
//     ensemble replicas), or for a sequence (transient slices, partition
//     milestones) ONE record, its newest milestone. Payloads typically
//     contain serialized engine state (RNG words, island occupations,
//     transported charge), accumulator contents, per-unit results and
//     audit trails. The file is rewritten atomically
//     (temp file + rename) after every record, so a SIGKILL at any instant
//     leaves either the previous or the new consistent snapshot — never a
//     torn one. On open, an existing file is validated against the format
//     version and the caller's run fingerprint and rejected with a clear
//     Error on any mismatch, truncation, or checksum failure.
//
// File format (all integers little-endian):
//
//   u64  magic       "SEMSIMCP"
//   u32  format version (kFormatVersion)
//   u32  reserved (0)
//   u64  run fingerprint (hash of everything that defines the run identity)
//   u64  unit_count of the run
//   u64  record_count
//   record_count x [ u64 unit_index | u64 payload_len | payload bytes
//                    | u64 fnv1a64(payload) ]
//
// Because work units are pure functions of (configuration, unit_index) —
// the determinism contract of base/thread_pool.h — resuming from any subset
// of completed units and recomputing the rest reproduces the uninterrupted
// run bit for bit, at any thread count; so does resuming a sequence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"

namespace semsim {

/// FNV-1a 64-bit hash; used for payload checksums and run fingerprints.
std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept;
std::uint64_t fnv1a64(const std::string& s) noexcept;

/// Little-endian append-only byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern, exact round trip
  void str(const std::string& s);
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_i64(const std::vector<long>& v);
  void vec_f64(const std::vector<double>& v);
  void vec_u8(const std::vector<std::uint8_t>& v);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a byte span; every overrun throws Error.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& bytes)
      : BinaryReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<std::uint64_t> vec_u64();
  std::vector<long> vec_i64();
  std::vector<double> vec_f64();
  std::vector<std::uint8_t> vec_u8();

  std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws Error if any bytes are left unconsumed (corruption guard).
  void require_done() const;

 private:
  const std::uint8_t* need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Engine state serialization (RNG words, clock, island occupations,
/// transported charge, source overrides, work counters, audit trail).
void encode_engine_snapshot(BinaryWriter& w, const EngineSnapshot& s);
EngineSnapshot decode_engine_snapshot(BinaryReader& r);

void encode_solver_stats(BinaryWriter& w, const SolverStats& s);
SolverStats decode_solver_stats(BinaryReader& r);

/// Audit trail serialization (counts, last audited event, issues).
void encode_integrity_report(BinaryWriter& w, const IntegrityReport& r);
IntegrityReport decode_integrity_report(BinaryReader& r);

/// Versioned per-unit snapshot file; see the format comment above.
/// Thread-safe: record() may be called concurrently from worker threads.
class RunCheckpoint {
 public:
  /// v3: every payload carries its audit trail, and a sequence keeps one
  /// record, so v2 files are rejected with kCheckpointMismatch.
  static constexpr std::uint32_t kFormatVersion = 3;

  /// Binds to `path`. If the file exists it is loaded and validated
  /// (throws a coded IoError on any mismatch or corruption); otherwise an
  /// empty checkpoint starts. `require_existing` (--resume semantics) makes
  /// a missing file an Error instead.
  ///
  /// `salvage` enables the degraded-recovery path for damaged files: when
  /// the HEADER is intact (magic, version, fingerprint, unit count all
  /// match) but a record is truncated or fails its checksum, the valid
  /// record prefix is kept and the rest dropped (salvaged_dropped() reports
  /// how many), instead of rejecting the whole file — the dropped units are
  /// simply recomputed. Header-level damage is still an error: salvage
  /// never guesses at the run identity. Off by default so tests and
  /// pipelines that depend on corruption being loud keep their guarantees.
  RunCheckpoint(std::string path, std::uint64_t fingerprint,
                std::uint64_t unit_count, bool require_existing = false,
                bool salvage = false);

  bool has(std::size_t unit) const;
  /// Payload of a completed unit (copy; throws if absent).
  std::vector<std::uint8_t> payload(std::size_t unit) const;
  /// Stores (or overwrites) a unit's payload and atomically rewrites the
  /// file; with `only`, the payload replaces every other record (a
  /// sequence's newest milestone subsumes the earlier ones). Throws Error
  /// on I/O failure or an out-of-range unit index.
  void record(std::size_t unit, std::vector<std::uint8_t> payload,
              bool only = false);

  std::size_t completed() const;
  /// Records dropped by salvage mode on load (0 when the file was intact
  /// or salvage was off).
  std::uint64_t salvaged_dropped() const noexcept { return salvaged_dropped_; }

 private:
  void load_file();
  void save_locked() const;

  mutable std::mutex mu_;
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t unit_count_ = 0;
  bool salvage_ = false;
  std::uint64_t salvaged_dropped_ = 0;
  std::map<std::uint64_t, std::vector<std::uint8_t>> units_;
};

/// Checkpoint request the analysis drivers thread through to their parallel
/// loops. An empty path disables checkpointing entirely.
struct CheckpointConfig {
  std::string path;
  /// true = --resume semantics: the file must already exist.
  bool require_existing = false;
  /// Caller-side run identity (circuit, options, ...); the consumer mixes
  /// in its own decomposition parameters before opening the file.
  std::uint64_t fingerprint = 0;
  /// Keep the valid record prefix of a damaged file instead of rejecting it
  /// (RunCheckpoint salvage mode; CLI --salvage-checkpoint).
  bool salvage = false;

  bool enabled() const noexcept { return !path.empty(); }
};

}  // namespace semsim
