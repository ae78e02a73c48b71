#include "obs/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "base/error.h"

namespace semsim {

namespace {

constexpr std::uint64_t kMagic = 0x5345'4D53'494D'4350ULL;  // "SEMSIMCP"
/// Cap on a single record payload; a corrupt length field must not drive a
/// multi-gigabyte allocation before the checksum check can reject it.
constexpr std::uint64_t kMaxPayload = 1ULL << 30;
constexpr std::uint64_t kMaxVector = 1ULL << 28;

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s) noexcept {
  return fnv1a64(s.data(), s.size());
}

// ---- BinaryWriter ----------------------------------------------------------

void BinaryWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void BinaryWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinaryWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void BinaryWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void BinaryWriter::str(const std::string& s) {
  u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  for (const std::uint64_t x : v) u64(x);
}

void BinaryWriter::vec_i64(const std::vector<long>& v) {
  u64(v.size());
  for (const long x : v) i64(x);
}

void BinaryWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  for (const double x : v) f64(x);
}

void BinaryWriter::vec_u8(const std::vector<std::uint8_t>& v) {
  u64(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

// ---- BinaryReader ----------------------------------------------------------

const std::uint8_t* BinaryReader::need(std::size_t n) {
  if (n > size_ - pos_) {
    throw Error("checkpoint: truncated record (needed " + std::to_string(n) +
                " bytes, " + std::to_string(size_ - pos_) + " left)");
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t BinaryReader::u8() { return *need(1); }

std::uint32_t BinaryReader::u32() {
  const std::uint8_t* p = need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t BinaryReader::u64() {
  const std::uint8_t* p = need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::int64_t BinaryReader::i64() { return static_cast<std::int64_t>(u64()); }

double BinaryReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string BinaryReader::str() {
  const std::uint64_t n = u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt string length");
  const std::uint8_t* p = need(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

std::vector<std::uint64_t> BinaryReader::vec_u64() {
  const std::uint64_t n = u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt vector length");
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = u64();
  return v;
}

std::vector<long> BinaryReader::vec_i64() {
  const std::uint64_t n = u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt vector length");
  std::vector<long> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<long>(i64());
  return v;
}

std::vector<double> BinaryReader::vec_f64() {
  const std::uint64_t n = u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt vector length");
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = f64();
  return v;
}

std::vector<std::uint8_t> BinaryReader::vec_u8() {
  const std::uint64_t n = u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt vector length");
  const std::uint8_t* p = need(static_cast<std::size_t>(n));
  return std::vector<std::uint8_t>(p, p + n);
}

void BinaryReader::require_done() const {
  if (pos_ != size_) {
    throw Error("checkpoint: " + std::to_string(size_ - pos_) +
                " trailing bytes after payload");
  }
}

// ---- engine state ----------------------------------------------------------

void encode_engine_snapshot(BinaryWriter& w, const EngineSnapshot& s) {
  for (const std::uint64_t word : s.rng) w.u64(word);
  w.f64(s.time);
  w.f64(s.next_breakpoint);
  w.vec_i64(s.electrons);
  w.vec_f64(s.transferred_e);
  w.vec_f64(s.v_ext);
  w.vec_u8(s.overridden);
  encode_solver_stats(w, s.stats);
  encode_integrity_report(w, s.integrity);
}

EngineSnapshot decode_engine_snapshot(BinaryReader& r) {
  EngineSnapshot s;
  for (std::uint64_t& word : s.rng) word = r.u64();
  s.time = r.f64();
  s.next_breakpoint = r.f64();
  s.electrons = r.vec_i64();
  s.transferred_e = r.vec_f64();
  s.v_ext = r.vec_f64();
  s.overridden = r.vec_u8();
  s.stats = decode_solver_stats(r);
  s.integrity = decode_integrity_report(r);
  return s;
}

void encode_solver_stats(BinaryWriter& w, const SolverStats& s) {
  w.u64(s.events);
  w.u64(s.rate_evaluations);
  w.u64(s.cp_rate_evaluations);
  w.u64(s.cot_rate_evaluations);
  w.u64(s.potential_node_updates);
  w.u64(s.junctions_tested);
  w.u64(s.junctions_flagged);
  w.u64(s.full_refreshes);
  w.u64(s.source_updates);
}

SolverStats decode_solver_stats(BinaryReader& r) {
  SolverStats s;
  s.events = r.u64();
  s.rate_evaluations = r.u64();
  s.cp_rate_evaluations = r.u64();
  s.cot_rate_evaluations = r.u64();
  s.potential_node_updates = r.u64();
  s.junctions_tested = r.u64();
  s.junctions_flagged = r.u64();
  s.full_refreshes = r.u64();
  s.source_updates = r.u64();
  return s;
}

void encode_integrity_report(BinaryWriter& w, const IntegrityReport& r) {
  w.u64(r.audits_run);
  w.u64(r.last_audit_event);
  w.u64(r.issues.size());
  for (const IntegrityIssue& i : r.issues) {
    w.u32(static_cast<std::uint32_t>(i.code));
    w.str(i.detail);
    w.u64(i.at_event);
    w.f64(i.sim_time);
  }
}

IntegrityReport decode_integrity_report(BinaryReader& r) {
  IntegrityReport out;
  out.audits_run = r.u64();
  out.last_audit_event = r.u64();
  const std::uint64_t n = r.u64();
  if (n > kMaxVector) throw Error("checkpoint: corrupt issue count");
  for (std::uint64_t k = 0; k < n; ++k) {
    IntegrityIssue i;
    i.code = static_cast<ErrorCode>(r.u32());
    i.detail = r.str();
    i.at_event = r.u64();
    i.sim_time = r.f64();
    out.issues.push_back(std::move(i));
  }
  return out;
}

// ---- RunCheckpoint ---------------------------------------------------------

RunCheckpoint::RunCheckpoint(std::string path, std::uint64_t fingerprint,
                             std::uint64_t unit_count, bool require_existing,
                             bool salvage)
    : path_(std::move(path)),
      fingerprint_(fingerprint),
      unit_count_(unit_count),
      salvage_(salvage) {
  require(!path_.empty(), "RunCheckpoint: empty path");
  require(unit_count_ >= 1, "RunCheckpoint: need at least one unit");
  std::ifstream probe(path_, std::ios::binary);
  if (!probe) {
    if (require_existing) {
      throw IoError(ErrorCode::kIoFailure,
                    "checkpoint: --resume file does not exist: " + path_);
    }
    return;  // fresh run: file is created on the first record()
  }
  probe.close();
  load_file();
}

void RunCheckpoint::load_file() {
  std::ifstream f(path_, std::ios::binary);
  if (!f) throw IoError(ErrorCode::kIoFailure, "checkpoint: cannot open " + path_);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  if (!f && !f.eof()) {
    throw IoError(ErrorCode::kIoFailure, "checkpoint: read failed for " + path_);
  }

  // Header damage is always fatal: without a trusted magic/version/identity
  // there is nothing safe to salvage.
  BinaryReader r(bytes);
  if (r.remaining() < 8 || r.u64() != kMagic) {
    throw IoError(ErrorCode::kCheckpointCorrupt,
                  "checkpoint: " + path_ + " is not a SEMSIM checkpoint file");
  }
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion) {
    throw IoError(ErrorCode::kCheckpointMismatch,
                  "checkpoint: " + path_ + " has format version " +
                      std::to_string(version) + ", this build reads version " +
                      std::to_string(kFormatVersion));
  }
  r.u32();  // reserved
  const std::uint64_t fp = r.u64();
  if (fp != fingerprint_) {
    throw IoError(ErrorCode::kCheckpointMismatch,
                  "checkpoint: " + path_ +
                      " was written by a run with a different configuration "
                      "(fingerprint mismatch) — refusing to resume");
  }
  const std::uint64_t units = r.u64();
  if (units != unit_count_) {
    throw IoError(ErrorCode::kCheckpointMismatch,
                  "checkpoint: " + path_ + " describes " +
                      std::to_string(units) + " work units, this run has " +
                      std::to_string(unit_count_));
  }
  const std::uint64_t records = r.u64();
  std::uint64_t kept = 0;
  try {
    for (std::uint64_t i = 0; i < records; ++i) {
      const std::uint64_t unit = r.u64();
      if (unit >= unit_count_) {
        throw IoError(ErrorCode::kCheckpointCorrupt,
                      "checkpoint: " + path_ + " has out-of-range unit index " +
                          std::to_string(unit));
      }
      const std::uint64_t len = r.u64();
      if (len > kMaxPayload) {
        throw IoError(ErrorCode::kCheckpointCorrupt,
                      "checkpoint: " + path_ + " has corrupt payload length");
      }
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(len));
      for (auto& b : payload) b = r.u8();
      const std::uint64_t checksum = r.u64();
      if (checksum != fnv1a64(payload.data(), payload.size())) {
        throw IoError(ErrorCode::kCheckpointCorrupt,
                      "checkpoint: " + path_ +
                          " payload checksum mismatch for unit " +
                          std::to_string(unit) + " (corrupt file)");
      }
      units_[unit] = std::move(payload);
      ++kept;
    }
    r.require_done();
  } catch (const Error& e) {
    if (!salvage_) {
      // The reader throws uncoded Errors on truncation; surface every
      // record-level failure as the coded corruption error so the CLI maps
      // it to the I/O exit code.
      if (e.category() == ErrorCategory::kIo) throw;
      throw IoError(ErrorCode::kCheckpointCorrupt,
                    "checkpoint: " + path_ + " is damaged: " + e.what());
    }
    // Salvage: the records stored before the damage all passed their own
    // checksums — keep them and recompute the rest. (A record only enters
    // units_ after its checksum verifies, so the map holds the valid
    // prefix when the throw interrupted the loop.)
    salvaged_dropped_ = records > kept ? records - kept : 1;
  }
}

bool RunCheckpoint::has(std::size_t unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  return units_.count(unit) != 0;
}

std::vector<std::uint8_t> RunCheckpoint::payload(std::size_t unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = units_.find(unit);
  require(it != units_.end(),
          "RunCheckpoint: unit " + std::to_string(unit) + " not recorded");
  return it->second;
}

std::size_t RunCheckpoint::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return units_.size();
}

void RunCheckpoint::record(std::size_t unit, std::vector<std::uint8_t> payload,
                           bool only) {
  require(unit < unit_count_, "RunCheckpoint: unit index out of range");
  require(payload.size() <= kMaxPayload, "RunCheckpoint: payload too large");
  std::lock_guard<std::mutex> lock(mu_);
  if (only) units_.clear();
  units_[unit] = std::move(payload);
  save_locked();
}

void RunCheckpoint::save_locked() const {
  BinaryWriter w;
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u32(0);
  w.u64(fingerprint_);
  w.u64(unit_count_);
  w.u64(units_.size());
  for (const auto& [unit, payload] : units_) {
    w.u64(unit);
    w.u64(payload.size());
    for (const std::uint8_t b : payload) w.u8(b);
    w.u64(fnv1a64(payload.data(), payload.size()));
  }

  // Atomic publish: a crash mid-write leaves the previous snapshot intact.
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw Error("checkpoint: cannot open " + tmp);
    f.write(reinterpret_cast<const char*>(w.bytes().data()),
            static_cast<std::streamsize>(w.bytes().size()));
    f.flush();
    if (!f) {
      std::remove(tmp.c_str());
      throw Error("checkpoint: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("checkpoint: cannot rename " + tmp + " to " + path_);
  }
}

}  // namespace semsim
