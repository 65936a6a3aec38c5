#include "util/durable_file.h"

#include <cerrno>
#include <cstring>

#include "chaos/chaos.h"
#include "util/cache.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTB_DURABLE_POSIX 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <filesystem>
#include <fstream>
#endif

namespace ftb::util {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

void set_error(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
}

#if FTB_DURABLE_POSIX

std::string errno_string(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Writes all of [data, data+size) through the chaos veneer, absorbing
/// EINTR and short writes.  False (with errno intact) on a hard error.
bool write_all(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = chaos::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

std::string parent_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#endif  // FTB_DURABLE_POSIX

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, const std::uint8_t* payload,
                  std::size_t size) {
  const std::size_t at = out.size();
  out.resize(at + kFrameOverhead + size);
  put_u32(out.data() + at, static_cast<std::uint32_t>(size));
  put_u32(out.data() + at + 4, crc32(payload, size));
  if (size > 0) std::memcpy(out.data() + at + kFrameOverhead, payload, size);
}

std::vector<std::uint8_t> frame_record(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kFrameOverhead + payload.size());
  append_frame(out, payload.data(), payload.size());
  return out;
}

FrameScan scan_frames(std::span<const std::uint8_t> bytes, std::size_t begin,
                      std::uint32_t max_len) {
  FrameScan scan;
  std::size_t pos = begin;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameOverhead) {
      scan.tail = FrameTail::kTornHeader;
      break;
    }
    const std::uint32_t len = read_u32(bytes.data() + pos);
    if (len > max_len) {
      scan.tail = FrameTail::kOversized;
      scan.tail_len = len;
      break;
    }
    if (bytes.size() - pos - kFrameOverhead < len) {
      scan.tail = FrameTail::kTornPayload;
      break;
    }
    const auto payload = bytes.subspan(pos + kFrameOverhead, len);
    if (read_u32(bytes.data() + pos + 4) != crc32(payload.data(), len)) {
      scan.tail = FrameTail::kBadCrc;
      break;
    }
    scan.frames.push_back({pos, payload});
    pos += kFrameOverhead + len;
  }
  scan.end = pos;
  return scan;
}

#if FTB_DURABLE_POSIX

bool fsync_parent_dir(const std::string& path, std::string* error) {
  const std::string dir = parent_of(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    set_error(error, errno_string("open directory '" + dir + "'"));
    return false;
  }
  int rc;
  do {
    rc = chaos::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  const int saved_errno = errno;
  ::close(fd);
  if (rc < 0) {
    errno = saved_errno;
    set_error(error, errno_string("fsync directory '" + dir + "'"));
    return false;
  }
  return true;
}

bool write_file_durable(const std::string& path, const void* data,
                        std::size_t size, std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_error(error, errno_string("open '" + tmp + "'"));
    return false;
  }
  if (!write_all(fd, static_cast<const std::uint8_t*>(data), size)) {
    set_error(error, errno_string("write '" + tmp + "'"));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  int rc;
  do {
    rc = chaos::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    set_error(error, errno_string("fsync '" + tmp + "'"));
    ::close(fd);
    ::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) < 0) {
    set_error(error, errno_string("close '" + tmp + "'"));
    ::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) < 0) {
    set_error(error, errno_string("rename '" + tmp + "' -> '" + path + "'"));
    ::unlink(tmp.c_str());
    return false;
  }
  // The file's bytes are durable and the rename is atomic; the directory
  // fsync makes the new link itself survive a crash.
  return fsync_parent_dir(path, error);
}

AppendLog::~AppendLog() { close(); }

bool AppendLog::open(const std::string& path, std::string* error) {
  close();
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    set_error(error, errno_string("open '" + path + "'"));
    return false;
  }
  struct stat st{};
  if (::fstat(fd, &st) < 0) {
    set_error(error, errno_string("fstat '" + path + "'"));
    ::close(fd);
    return false;
  }
  fd_ = fd;
  path_ = path;
  size_ = static_cast<std::uint64_t>(st.st_size);
  // Make the file's existence durable before the first record is acked.
  if (!fsync_parent_dir(path, error)) {
    close();
    return false;
  }
  return true;
}

bool AppendLog::append(const void* data, std::size_t size,
                       std::string* error) {
  if (fd_ < 0) {
    set_error(error, "append log '" + path_ + "' is not open");
    return false;
  }
  bool failed = false;
  std::string detail;
  if (!write_all(fd_, static_cast<const std::uint8_t*>(data), size)) {
    detail = errno_string("append to '" + path_ + "'");
    failed = true;
  }
  if (!failed) {
    int rc;
    do {
      rc = chaos::fsync(fd_);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      detail = errno_string("fsync '" + path_ + "'");
      failed = true;
    }
  }
  if (!failed) {
    size_ += size;
    return true;
  }
  // Roll the file back to the last good record.  A record that was written
  // but not fsynced must not be treated as acked, and a partial record must
  // not sit in front of later appends and corrupt the framing.
  int rc;
  do {
    rc = ::ftruncate(fd_, static_cast<off_t>(size_));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    detail += "; rollback ftruncate failed (" +
              std::string(std::strerror(errno)) + "), log is poisoned";
    ::close(fd_);
    fd_ = -1;
  }
  set_error(error, detail);
  return false;
}

void AppendLog::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  size_ = 0;
}

#else  // !FTB_DURABLE_POSIX

// Portability fallback: atomic rename without fsync (the platforms the
// service actually targets take the POSIX path above).

bool fsync_parent_dir(const std::string&, std::string*) { return true; }

bool write_file_durable(const std::string& path, const void* data,
                        std::size_t size, std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      set_error(error, "cannot open '" + tmp + "' for writing");
      return false;
    }
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out) {
      set_error(error, "cannot write '" + tmp + "'");
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    set_error(error, "cannot rename '" + tmp + "': " + ec.message());
    return false;
  }
  return true;
}

AppendLog::~AppendLog() { close(); }

bool AppendLog::open(const std::string& path, std::string* error) {
  set_error(error, "append log is not supported on this platform");
  path_ = path;
  return false;
}

bool AppendLog::append(const void*, std::size_t, std::string* error) {
  set_error(error, "append log is not supported on this platform");
  return false;
}

void AppendLog::close() {
  fd_ = -1;
  size_ = 0;
}

#endif

}  // namespace ftb::util
