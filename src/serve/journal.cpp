#include "serve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "base/error.h"
#include "obs/checkpoint.h"

namespace semsim {

namespace {

constexpr std::uint64_t kMagic = 0x5345'4D53'494D'4A4CULL;  // "SEMSIMJL"
constexpr std::size_t kHeaderBytes = 8 + 4 + 4;
/// Record body cap: the biggest legitimate body is a done record carrying a
/// canonical result document. A longer length field is read as torn.
constexpr std::uint64_t kMaxBody = 1ULL << 30;

[[noreturn]] void io_fail(const std::string& what) {
  throw IoError(ErrorCode::kIoFailure,
                "journal: " + what + ": " + std::strerror(errno));
}

/// One framed record (obs/checkpoint.h): u64 body length, the body, u64
/// FNV-1a of the body.
std::vector<std::uint8_t> encode_frame(const JournalRecord& rec) {
  BinaryWriter frame;
  const std::size_t body = frame.begin_frame();
  frame.u8(static_cast<std::uint8_t>(rec.type));
  frame.u64(rec.job_id);
  switch (rec.type) {
    case JournalRecord::Type::kSubmit:
      frame.str(rec.envelope_json);
      frame.u64(rec.deadline_unix_ms);
      frame.str(rec.client);
      break;
    case JournalRecord::Type::kStart:
    case JournalRecord::Type::kCancel:
      break;
    case JournalRecord::Type::kDone:
      frame.u8(static_cast<std::uint8_t>(rec.final_state));
      frame.u32(static_cast<std::uint16_t>(rec.error_code));
      frame.str(rec.error);
      frame.str(rec.document);
      break;
  }
  frame.end_frame(body);
  return frame.take();
}

/// Decodes a body whose checksum verified. Strings are built straight from
/// the file buffer. Throws Error on any damage; the caller codes it.
JournalRecord decode_body(const std::uint8_t* data, std::size_t size) {
  BinaryReader r(data, size);
  JournalRecord rec;
  const std::uint8_t type = r.u8();
  if (type < 1 || type > 4) {
    throw Error("unknown record type " + std::to_string(type));
  }
  rec.type = static_cast<JournalRecord::Type>(type);
  rec.job_id = r.u64();
  switch (rec.type) {
    case JournalRecord::Type::kSubmit:
      rec.envelope_json = r.str();
      rec.deadline_unix_ms = r.u64();
      rec.client = r.str();
      break;
    case JournalRecord::Type::kStart:
    case JournalRecord::Type::kCancel:
      break;
    case JournalRecord::Type::kDone: {
      const std::uint8_t state = r.u8();
      if (state > static_cast<std::uint8_t>(JobState::kCancelled)) {
        throw Error("bad terminal state " + std::to_string(state));
      }
      rec.final_state = static_cast<JobState>(state);
      rec.error_code = static_cast<ErrorCode>(r.u32());
      rec.error = r.str();
      rec.document = r.str();
      break;
    }
  }
  r.require_done();
  return rec;
}

}  // namespace

JobJournal::JobJournal(std::string path) : path_(std::move(path)) {
  require(!path_.empty(), ErrorCode::kIoFailure, "journal: empty path");
  open_and_replay();
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void JobJournal::open_and_replay() {
  // Whatever is on disk, mapped (there may be nothing). The records copy
  // what they keep out of the mapping, which is released before the file
  // is cut.
  std::optional<MappedFile> file = MappedFile::open(path_);
  const std::uint8_t* bytes = file ? file->data() : nullptr;
  const std::size_t size = file ? file->size() : 0;

  // valid_end tracks the longest prefix that parses cleanly; everything
  // after it is a torn append and is truncated off below.
  std::size_t valid_end = 0;
  // A file shorter than a header is empty, or a crash landed inside the
  // very first header write: either way there is no record to lose, so
  // start fresh.
  const bool write_header = size < kHeaderBytes;
  if (!write_header) {
    BinaryReader header(bytes, kHeaderBytes);
    if (header.u64() != kMagic) {
      throw Error(ErrorCode::kServeJournalCorrupt,
                  "journal: " + path_ + " is not a SEMSIM job journal");
    }
    const std::uint32_t version = header.u32();
    if (version != kFormatVersion) {
      throw Error(ErrorCode::kServeJournalCorrupt,
                  "journal: " + path_ + " has format version " +
                      std::to_string(version) +
                      ", this build reads version " +
                      std::to_string(kFormatVersion));
    }
    valid_end = kHeaderBytes;

    // Each frame is checked where it lies, and a wild length allocates
    // nothing. A torn frame (a length above the cap, a body or checksum
    // past the end of the file) or a failed checksum is an append that
    // never finished: the loop stops and the tail is dropped.
    FrameScanner frames(bytes + kHeaderBytes, size - kHeaderBytes, kMaxBody);
    while (frames.next() == FrameScanner::Frame::kWhole) {
      try {
        records_.push_back(decode_body(frames.body(), frames.body_size()));
      } catch (const Error& e) {
        // The checksum verified, so this cannot be a torn append: damage
        // inside a written record is unrecoverable and propagates.
        throw Error(ErrorCode::kServeJournalCorrupt,
                    "journal: " + path_ + ": damaged record at byte " +
                        std::to_string(valid_end) + ": " + e.what());
      }
      valid_end = kHeaderBytes + frames.end();
    }
  }

  file.reset();
  if (!write_header && valid_end < size) {
    truncated_bytes_ = size - valid_end;
    if (::truncate(path_.c_str(), static_cast<off_t>(valid_end)) != 0) {
      io_fail("truncate(" + path_ + ")");
    }
  }

  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) io_fail("open(" + path_ + ")");
  if (write_header) {
    if (size > 0) {
      // Partial header from a crash during creation; rewrite from scratch.
      truncated_bytes_ = size;
      if (::ftruncate(fd_, 0) != 0) io_fail("ftruncate(" + path_ + ")");
    }
    BinaryWriter w;
    w.u64(kMagic);
    w.u32(kFormatVersion);
    w.u32(0);
    if (!write_all(fd_, w.bytes().data(), w.bytes().size())) {
      io_fail("write header(" + path_ + ")");
    }
    if (::fsync(fd_) != 0) io_fail("fsync(" + path_ + ")");
  }
}

void JobJournal::append(const JournalRecord& record) {
  require(fd_ >= 0, ErrorCode::kIoFailure, "journal: not open");
  const std::vector<std::uint8_t> buf = encode_frame(record);
  // One write() so a crash tears at most this record, never an earlier one.
  if (!write_all(fd_, buf.data(), buf.size())) io_fail("append(" + path_ + ")");
  if (::fsync(fd_) != 0) io_fail("fsync(" + path_ + ")");
}

}  // namespace semsim
