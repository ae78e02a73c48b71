#include "obs/checkpoint.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "base/error.h"

namespace semsim {

namespace {

constexpr std::uint64_t kMagic = 0x5345'4D53'494D'4350ULL;  // "SEMSIMCP"
/// magic | version | reserved | fingerprint | unit count
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;
/// Cap on a single record payload; a longer claim in a frame's length
/// field reads as a torn append and allocates nothing.
constexpr std::uint64_t kMaxPayload = 1ULL << 30;
/// A frame body is the unit index, then the payload.
constexpr std::uint64_t kMaxBody = 8 + kMaxPayload;
constexpr std::uint64_t kMaxVector = 1ULL << 28;
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[noreturn]] void io_fail(const std::string& what) {
  throw IoError(ErrorCode::kIoFailure,
                "checkpoint: " + what + ": " + std::strerror(errno));
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64(const std::string& s) noexcept {
  return fnv1a64(s.data(), s.size());
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) noexcept {
  while (n > 0) {
    const ssize_t done = ::write(fd, data, n);
    if (done < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += done;
    n -= static_cast<std::size_t>(done);
  }
  return true;
}

// ---- MappedFile ------------------------------------------------------------

std::optional<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  void* data = nullptr;
  const char* failed = nullptr;
  if (::fstat(fd, &st) != 0) {
    failed = "cannot size ";
  } else if (st.st_size > 0) {
    data = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                  MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (data == MAP_FAILED) failed = "cannot map ";
  }
  const int err = errno;
  ::close(fd);  // a mapping outlives its descriptor
  if (failed != nullptr) {
    throw IoError(ErrorCode::kIoFailure,
                  failed + path + ": " + std::strerror(err));
  }
  return MappedFile(static_cast<const std::uint8_t*>(data),
                    static_cast<std::size_t>(st.st_size));
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
}

// ---- BinaryWriter ----------------------------------------------------------

template <typename T>
void BinaryWriter::word(T v) {
  std::uint8_t le[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf_.insert(buf_.end(), le, le + sizeof(T));
}

void BinaryWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void BinaryWriter::u32(std::uint32_t v) { word(v); }

void BinaryWriter::u64(std::uint64_t v) { word(v); }

void BinaryWriter::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void BinaryWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  word(bits);
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

void BinaryWriter::raw(const std::uint8_t* data, std::size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

std::size_t BinaryWriter::begin_frame() {
  word(std::uint64_t{0});
  return buf_.size();
}

void BinaryWriter::end_frame(std::size_t start) {
  const std::uint64_t len = buf_.size() - start;
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[start - 8 + i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  word(fnv1a64(buf_.data() + start, static_cast<std::size_t>(len)));
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

// ---- FrameScanner ----------------------------------------------------------

FrameScanner::FrameScanner(const std::uint8_t* data, std::size_t size,
                           std::uint64_t max_body)
    : data_(data), size_(size) {
  // The length chain first, hashing nothing: count the whole frames up to
  // the first torn one. Both tests run before a length is used, so a wild
  // claim allocates and reads nothing.
  std::size_t frames = 0;
  for (std::size_t at = 0; size_ - at >= 8;) {
    const std::uint64_t len = BinaryReader(data_ + at, 8).u64();
    if (len > max_body || len + 8 > size_ - at - 8) break;
    at += 8 + static_cast<std::size_t>(len) + 8;
    ++frames;
  }
  sums_.resize(frames);
  checksum_bodies();
}

void FrameScanner::checksum_bodies() noexcept {
  // FNV-1a is one serial multiply per byte, but frames are independent:
  // four lanes each hash one body, interleaved, so four multiply chains
  // overlap. A lane takes the next unhashed frame as soon as its own ends
  // (fixed groups of four would each wait for their longest member, and a
  // journal mixes 9-byte starts with kilobyte documents).
  struct Lane {
    const std::uint8_t* p = nullptr;
    std::size_t left = 0;
    std::uint64_t h = kFnvBasis;
    std::size_t frame = 0;
  };
  std::size_t taken = 0;  // frames handed to a lane
  std::size_t at = 0;     // offset of the next frame to hand out
  const auto take = [&](Lane& lane) {
    if (taken == sums_.size()) return false;
    const std::size_t len =
        static_cast<std::size_t>(BinaryReader(data_ + at, 8).u64());
    lane = Lane{data_ + at + 8, len, kFnvBasis, taken++};
    at += 8 + len + 8;
    return true;
  };
  Lane lane[4];
  std::size_t busy = 0;
  while (busy < 4 && take(lane[busy])) ++busy;
  while (busy == 4) {
    const std::size_t n = std::min({lane[0].left, lane[1].left,
                                    lane[2].left, lane[3].left});
    std::uint64_t h0 = lane[0].h, h1 = lane[1].h, h2 = lane[2].h,
                  h3 = lane[3].h;
    const std::uint8_t *p0 = lane[0].p, *p1 = lane[1].p, *p2 = lane[2].p,
                       *p3 = lane[3].p;
    for (std::size_t i = 0; i < n; ++i) {
      h0 = (h0 ^ p0[i]) * kFnvPrime;
      h1 = (h1 ^ p1[i]) * kFnvPrime;
      h2 = (h2 ^ p2[i]) * kFnvPrime;
      h3 = (h3 ^ p3[i]) * kFnvPrime;
    }
    lane[0].h = h0, lane[1].h = h1, lane[2].h = h2, lane[3].h = h3;
    // Refill every lane whose body is done; one that finds no frame left
    // moves behind the busy ones.
    for (std::size_t k = 0; k < busy;) {
      lane[k].p += n;
      lane[k].left -= n;
      if (lane[k].left == 0) {
        sums_[lane[k].frame] = lane[k].h;
        if (!take(lane[k])) {
          std::swap(lane[k], lane[--busy]);
          continue;
        }
      }
      ++k;
    }
  }
  // Fewer than four frames left in flight: finish each one alone.
  for (std::size_t k = 0; k < busy; ++k) {
    std::uint64_t h = lane[k].h;
    for (std::size_t i = 0; i < lane[k].left; ++i) {
      h = (h ^ lane[k].p[i]) * kFnvPrime;
    }
    sums_[lane[k].frame] = h;
  }
}

FrameScanner::Frame FrameScanner::next() {
  if (next_ == sums_.size()) {
    return end_ == size_ ? Frame::kEnd : Frame::kTorn;
  }
  BinaryReader r(data_ + end_, size_ - end_);
  body_size_ = static_cast<std::size_t>(r.u64());
  body_ = r.need(body_size_);
  const bool sound = r.u64() == sums_[next_++];
  end_ += 8 + body_size_ + 8;
  return sound ? Frame::kWhole : Frame::kBadChecksum;
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
  // The payloads are copied out of the mapping, which is released before
  // any record() can cut the file.
  const std::optional<MappedFile> file = MappedFile::open(path_);
  if (!file) {
    if (require_existing) {
      throw IoError(ErrorCode::kIoFailure,
                    "checkpoint: --resume file does not exist: " + path_);
    }
    return;  // fresh run: file is created on the first record()
  }
  load_file(file->data(), file->size());
}

RunCheckpoint::~RunCheckpoint() {
  if (fd_ >= 0) ::close(fd_);
}

void RunCheckpoint::load_file(const std::uint8_t* bytes, std::size_t size) {
  // Header damage is always fatal: without a trusted magic/version/identity
  // there is nothing safe to salvage.
  BinaryReader r(bytes, size);
  if (r.remaining() < 8 || r.u64() != kMagic) {
    throw IoError(ErrorCode::kCheckpointCorrupt,
                  "checkpoint: " + path_ + " is not a SEMSIM checkpoint file");
  }
  // Every format wrote its header whole, so a short one is damage.
  if (size < kHeaderBytes) {
    throw IoError(ErrorCode::kCheckpointCorrupt,
                  "checkpoint: " + path_ + " has a short header (" +
                      std::to_string(size) + " bytes)");
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

  end_ = kHeaderBytes;
  FrameScanner frames(bytes + kHeaderBytes, size - kHeaderBytes, kMaxBody);
  const auto whole = [](FrameScanner::Frame f) {
    return f == FrameScanner::Frame::kWhole ||
           f == FrameScanner::Frame::kBadChecksum;
  };
  // A torn append ends the loop like the end of the file: it is dropped
  // here and cut off by the first record().
  for (FrameScanner::Frame f; whole(f = frames.next());) {
    std::uint64_t unit = 0;
    std::string damage;
    if (f == FrameScanner::Frame::kBadChecksum) {
      damage = "frame checksum mismatch";
    } else if (frames.body_size() < 8) {
      damage = "frame too short for a unit index";
    } else if ((unit = BinaryReader(frames.body(), 8).u64()) >= unit_count_) {
      damage = "out-of-range unit index " + std::to_string(unit);
    }
    if (!damage.empty()) {
      if (!salvage_) {
        throw IoError(ErrorCode::kCheckpointCorrupt,
                      "checkpoint: " + path_ + " is damaged at byte " +
                          std::to_string(end_) + ": " + damage);
      }
      // Salvage: every frame before this one passed its own checks — keep
      // them, drop this one and every whole frame after it, and recompute
      // their units.
      for (salvaged_dropped_ = 1; whole(frames.next());) ++salvaged_dropped_;
      break;
    }
    units_[unit].assign(frames.body() + 8,
                        frames.body() + frames.body_size());
    end_ = kHeaderBytes + frames.end();
  }
  cut_ = end_ < size;
}

bool RunCheckpoint::has(std::size_t unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  return units_.count(unit) != 0;
}

std::vector<std::uint8_t> RunCheckpoint::payload(std::size_t unit) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = units_.find(unit);
  if (it == units_.end()) {
    throw Error("RunCheckpoint: unit " + std::to_string(unit) + " not recorded");
  }
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
  BinaryWriter frame;
  const std::size_t body = frame.begin_frame();
  frame.u64(unit);
  frame.raw(payload.data(), payload.size());
  frame.end_frame(body);
  const std::vector<std::uint8_t>& bytes = frame.bytes();

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) open_for_append_locked();
  if (!write_all(fd_, bytes.data(), bytes.size())) {
    // Part of the frame may have landed: the next record() reopens the
    // file and cuts it off first, so no frame ever follows a torn one.
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    cut_ = true;
    errno = err;
    io_fail("append to " + path_);
  }
  end_ += bytes.size();
  if (only) units_.clear();
  units_[unit] = std::move(payload);
}

void RunCheckpoint::open_for_append_locked() {
  if (end_ == 0) {
    // No file on open: write the header once, under a temp name renamed
    // into place, so the file never exists without a whole header.
    const std::string tmp = path_ + ".tmp";
    fd_ = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0) io_fail("cannot create " + tmp);
    BinaryWriter w;
    w.u64(kMagic);
    w.u32(kFormatVersion);
    w.u32(0);
    w.u64(fingerprint_);
    w.u64(unit_count_);
    if (!write_all(fd_, w.bytes().data(), w.bytes().size()) ||
        std::rename(tmp.c_str(), path_.c_str()) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      std::remove(tmp.c_str());
      errno = err;
      io_fail("cannot create " + path_);
    }
    end_ = kHeaderBytes;
    return;
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) io_fail("cannot open " + path_);
  if (cut_ && ::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
    io_fail("cannot truncate " + path_);
  }
  cut_ = false;
}

}  // namespace semsim
