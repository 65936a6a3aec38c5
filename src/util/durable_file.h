// Crash-durable file publication and append logging.
//
// The repo's persistence sites (campaign journals, boundary artifacts, the
// result cache, the job ledger) all publish with write-tmp-then-rename so a
// reader never observes a half-written file.  Rename alone is not durable:
// after a power cut the filesystem may replay the rename but not the data,
// leaving a complete-looking file full of zeros -- exactly the torn-write
// class the CRC framing is supposed to catch before it ever happens.  This
// helper closes the gap with the full POSIX ritual:
//
//   write(tmp) -> fsync(tmp) -> rename(tmp, path) -> fsync(parent dir)
//
// All I/O goes through the chaos veneers (chaos/chaos.h), so fault-
// injection tests can prove that a failed fsync surfaces as a clean error
// with the previous file intact, instead of being silently swallowed.
//
// The append-only files (the job ledger, in-progress campaign journals)
// share one record framing and one reader for it:
//
//   | len u32 | crc32(payload) u32 | payload (len bytes) |   (repeated)
//
// Each frame carries its own CRC, so a reader trusts every frame before the
// first torn or corrupt one and drops the tail from there: the state a
// crash between (or during) AppendLog::append calls leaves behind.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ftb::util {

/// Durably publishes `size` bytes at `path` (tmp + fsync + atomic rename +
/// parent-dir fsync).  On failure the previous `path` content, if any, is
/// untouched and the tmp file is removed.  False with a one-line diagnostic
/// in `error`.
bool write_file_durable(const std::string& path, const void* data,
                        std::size_t size, std::string* error = nullptr);

inline bool write_file_durable(const std::string& path,
                               const std::string& payload,
                               std::string* error = nullptr) {
  return write_file_durable(path, payload.data(), payload.size(), error);
}

inline bool write_file_durable(const std::string& path,
                               const std::vector<std::uint8_t>& payload,
                               std::string* error = nullptr) {
  return write_file_durable(path, payload.data(), payload.size(), error);
}

/// fsyncs the directory containing `path` so a freshly created or renamed
/// entry survives a crash.  Best-effort no-op on platforms without
/// directory fsync.
bool fsync_parent_dir(const std::string& path, std::string* error = nullptr);

/// Append-only log file with all-or-nothing records: append() writes the
/// whole record, fsyncs, and -- should the write or fsync fail partway --
/// truncates the file back to the last good record so a torn tail never
/// accumulates in front of later appends.  If even the truncate fails the
/// log poisons itself and rejects further appends (the caller's replay path
/// still detects the torn record by CRC).
class AppendLog {
 public:
  AppendLog() = default;
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Opens (creating if needed) `path` for appending and fsyncs the parent
  /// directory so the file's existence is durable.
  bool open(const std::string& path, std::string* error = nullptr);

  /// Appends `size` bytes and fsyncs before returning ("fsync-before-ack").
  bool append(const void* data, std::size_t size, std::string* error = nullptr);

  bool valid() const noexcept { return fd_ >= 0; }
  std::uint64_t size() const noexcept { return size_; }
  void close();

 private:
  int fd_ = -1;
  std::string path_;
  std::uint64_t size_ = 0;
};

/// Appends one frame holding `size` payload bytes to `out`.
void append_frame(std::vector<std::uint8_t>& out, const std::uint8_t* payload,
                  std::size_t size);

/// One frame as a newly allocated buffer.
std::vector<std::uint8_t> frame_record(const std::vector<std::uint8_t>& payload);

/// Bytes of framing in front of each payload.
inline constexpr std::size_t kFrameOverhead = 8;

/// Why scan_frames stopped before the end of its input.
enum class FrameTail : std::uint8_t {
  kClean = 0,     ///< every byte belongs to an intact frame
  kTornHeader,    ///< fewer than kFrameOverhead bytes left
  kOversized,     ///< the length word exceeds the caller's bound
  kTornPayload,   ///< the payload runs past the end of the input
  kBadCrc,        ///< the payload does not match its CRC
};

struct ScannedFrame {
  std::size_t offset = 0;               ///< where the frame header starts
  std::span<const std::uint8_t> payload;
};

struct FrameScan {
  std::vector<ScannedFrame> frames;     ///< intact frames, in file order
  FrameTail tail = FrameTail::kClean;
  std::size_t end = 0;                  ///< offset of the first byte dropped
  std::uint32_t tail_len = 0;           ///< length word of a kOversized frame
};

/// Reads the frames of `bytes` from offset `begin` up to the first torn or
/// corrupt one.  A frame declaring more than `max_len` payload bytes counts
/// as torn: a length word that rotted must not stand for a huge record.
/// The payload spans point into `bytes`.
FrameScan scan_frames(std::span<const std::uint8_t> bytes, std::size_t begin,
                      std::uint32_t max_len);

}  // namespace ftb::util
