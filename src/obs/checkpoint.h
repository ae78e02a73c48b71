// Crash-safe checkpoint/resume for long Monte-Carlo runs (semsim_obs).
//
// Three layers:
//
//   * BinaryWriter / BinaryReader — a tiny length-prefixed little-endian
//     binary codec. Every variable-length field carries its own length, so
//     a truncated or bit-flipped file fails loudly (Error) instead of
//     decoding garbage.
//
//   * Frames — the record shape of both append-only files, this
//     checkpoint and the daemon's job journal (serve/journal.h):
//
//       u64 body_len | body | u64 fnv1a64(body)
//
//     BinaryWriter::begin_frame/end_frame write one; FrameScanner walks
//     them where they lie in a file mapping (MappedFile) and tells a
//     whole frame, a whole frame whose checksum fails and a torn append
//     apart. What each means is the file's own policy. The scanner walks
//     the length chain first and then checksums the bodies it located
//     four at a time (FNV-1a is one serial multiply per byte; frames are
//     independent), with sums equal to fnv1a64's bit for bit.
//
//   * RunCheckpoint — a versioned file holding one opaque payload per
//     completed WORK UNIT of a run (sweep chunks, repeat seeds, ensemble
//     replicas), or per milestone of a sequence (transient slices,
//     partition milestones). Payloads typically contain serialized engine
//     state (RNG words, island occupations, transported charge),
//     accumulator contents, per-unit results and audit trails.
//
// File format v4 (all integers little-endian):
//
//   u64  magic       "SEMSIMCP"
//   u32  format version (kFormatVersion)
//   u32  reserved (0)
//   u64  run fingerprint (hash of everything that defines the run identity)
//   u64  unit_count of the run
//   frames, each: u64 body_len | body = u64 unit_index ‖ payload
//                 | u64 fnv1a64(body)
//
// The 32-byte header is written once per run, to a temp file renamed into
// place, so the file never exists without a whole header. Each record()
// then appends one frame with one write() on a descriptor held for the
// run (no fsync). A crash mid-append leaves a TORN APPEND: a last frame
// that runs past the end of the file or claims more than the payload cap.
// The open maps the file, copies the payloads out and releases the
// mapping. A torn append is dropped there (allocating nothing) and cut off
// the file just before the first new append, so a read-only open never
// changes the file. A whole frame with a bad checksum or an out-of-range unit is
// damage no crash explains: kCheckpointCorrupt, unless salvage keeps the
// frames before it. Header damage is always an error. A later frame for a
// unit replaces an earlier one on load.
//
// Because work units are pure functions of (configuration, unit_index) —
// the determinism contract of base/thread_pool.h — resuming from any subset
// of completed units and recomputing the rest reproduces the uninterrupted
// run bit for bit, at any thread count; so does resuming a sequence from
// its newest milestone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"

namespace semsim {

/// FNV-1a 64-bit hash; used for payload checksums and run fingerprints.
std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept;
std::uint64_t fnv1a64(const std::string& s) noexcept;

/// A whole file mapped read-only and private (MAP_POPULATE): its bytes
/// where the page cache holds them, read in one go and never copied.
/// Move-only; unmapped when it goes out of scope. Nothing may shorten the
/// file while it is mapped (a page past the new end would fault), so a
/// reader that cuts its file releases the mapping first.
class MappedFile {
 public:
  /// The file at `path`: nullopt when it cannot be opened (absent), an
  /// empty view when it is empty. Throws IoError(kIoFailure) when it
  /// opens but cannot be sized or mapped.
  static std::optional<MappedFile> open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&&) = delete;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }

 private:
  MappedFile(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writes all `n` bytes to `fd`: one write() unless the kernel writes
/// short, retried on EINTR. False, with errno set, on failure.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) noexcept;

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
  void raw(const std::uint8_t* data, std::size_t n);

  /// Opens a frame: writes a placeholder length and returns where the body
  /// starts. Write the body, then close it with end_frame(start).
  std::size_t begin_frame();
  /// Closes the frame whose body starts at `start`: fills in the body
  /// length and appends fnv1a64 of the body.
  void end_frame(std::size_t start);

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  template <typename T>
  void word(T v);

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

  /// The next `n` bytes where they lie (no copy); throws Error, before
  /// anything is read, when fewer than `n` remain.
  const std::uint8_t* need(std::size_t n);

  std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws Error if any bytes are left unconsumed (corruption guard).
  void require_done() const;

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Walks the frames of a buffer in place (see the format comment above).
/// Nothing is copied, and a length field is never trusted before the
/// buffer is known to hold that many bytes.
class FrameScanner {
 public:
  enum class Frame {
    kWhole,        ///< a whole frame whose checksum verifies
    kBadChecksum,  ///< a whole frame whose checksum fails
    kTorn,         ///< the rest is an unfinished append (see next())
    kEnd,          ///< no bytes left
  };

  /// `max_body` caps a body length: a longer claim reads as torn. Locates
  /// every whole frame up to the first torn one and checksums their
  /// bodies; it keeps one sum per located frame, so a wild length
  /// allocates nothing.
  FrameScanner(const std::uint8_t* data, std::size_t size,
               std::uint64_t max_body);

  /// The next frame. After kWhole or kBadChecksum, body() and body_size()
  /// locate its body and end() is the offset just past it. kTorn: fewer
  /// than 8 bytes are left, or the length exceeds the cap, or the body or
  /// checksum runs past the end; end() stays put, and so does every later
  /// call.
  Frame next();

  const std::uint8_t* body() const noexcept { return body_; }
  std::size_t body_size() const noexcept { return body_size_; }
  /// Offset just past the last whole frame next() returned (0 before any).
  std::size_t end() const noexcept { return end_; }

 private:
  /// Computes sums_ over the located bodies, in four lanes.
  void checksum_bodies() noexcept;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t end_ = 0;
  const std::uint8_t* body_ = nullptr;
  std::size_t body_size_ = 0;
  /// fnv1a64 of each located body, in file order; next() returns them.
  std::vector<std::uint64_t> sums_;
  std::size_t next_ = 0;  ///< index of the frame next() reads
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
  /// v4: append-only frames after a header without a record count, so v3
  /// (rewritten whole on every record) and v2 files are rejected with
  /// kCheckpointMismatch.
  static constexpr std::uint32_t kFormatVersion = 4;

  /// Binds to `path`. If the file exists it is loaded and validated
  /// (throws a coded IoError on any mismatch or corruption; a torn append
  /// is dropped, not an error); otherwise an empty checkpoint starts and
  /// the file is created on the first record(). Opening never writes.
  /// `require_existing` (--resume semantics) makes a missing file an Error.
  ///
  /// `salvage` enables the degraded-recovery path for damaged files: when
  /// the HEADER is intact (magic, version, fingerprint, unit count all
  /// match) but a whole frame fails its checksum or names an out-of-range
  /// unit, the frames before it are kept and it and every frame after it
  /// dropped (salvaged_dropped() reports how many), instead of rejecting
  /// the whole file — the dropped units are simply recomputed, and the
  /// first record() appends after the kept prefix. Header-level damage is
  /// still an error: salvage never guesses at the run identity. Off by
  /// default so tests and pipelines that depend on corruption being loud
  /// keep their guarantees.
  RunCheckpoint(std::string path, std::uint64_t fingerprint,
                std::uint64_t unit_count, bool require_existing = false,
                bool salvage = false);
  ~RunCheckpoint();

  RunCheckpoint(const RunCheckpoint&) = delete;
  RunCheckpoint& operator=(const RunCheckpoint&) = delete;

  bool has(std::size_t unit) const;
  /// Payload of a completed unit (copy; throws if absent).
  std::vector<std::uint8_t> payload(std::size_t unit) const;
  /// Stores (or overwrites) a unit's payload and appends its frame to the
  /// file; with `only`, the payload also replaces every other record held
  /// in memory (a sequence's newest milestone subsumes the earlier ones),
  /// while the file keeps every frame. Throws Error on I/O failure or an
  /// out-of-range unit index.
  void record(std::size_t unit, std::vector<std::uint8_t> payload,
              bool only = false);

  std::size_t completed() const;
  /// Frames dropped by salvage mode on load (0 when the file was intact
  /// or salvage was off). A torn append is not counted.
  std::uint64_t salvaged_dropped() const noexcept { return salvaged_dropped_; }

 private:
  void load_file(const std::uint8_t* bytes, std::size_t size);
  /// Opens the descriptor of the first append: creates the file with its
  /// header, or cuts an existing one back to its kept frames.
  void open_for_append_locked();

  mutable std::mutex mu_;
  std::string path_;
  std::uint64_t fingerprint_ = 0;
  std::uint64_t unit_count_ = 0;
  bool salvage_ = false;
  std::uint64_t salvaged_dropped_ = 0;
  /// Where the next frame goes: the end of the header or of the last
  /// frame kept or appended (0 while there is no file).
  std::size_t end_ = 0;
  /// The file may hold bytes past end_ (a torn append, frames salvage
  /// dropped, a failed append): the next open for append cuts them off.
  bool cut_ = false;
  int fd_ = -1;  ///< append descriptor, opened by the first record()
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
