// Binary result cache.  Exhaustive ground-truth campaigns are by far the
// most expensive step of the evaluation, and several bench binaries need the
// same table, so campaigns can persist results keyed by a configuration
// string.  The cache directory comes from FTB_CACHE_DIR (default
// ".ftb_cache"); set FTB_CACHE_DIR=off to disable caching entirely.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace ftb::util {

/// Append-only little-endian binary encoder.  Fixed-width fields are
/// stored a whole 8-byte word at a time.
class BinaryWriter {
 public:
  /// Reserves room for `bytes` more bytes (encoders that know their size
  /// up front avoid regrowing the buffer).
  void reserve(std::size_t bytes) { buf_.reserve(buf_.size() + bytes); }

  void put_u64(std::uint64_t v);
  void put_f64(double v);
  void put_bytes(const std::vector<std::uint8_t>& v);
  void put_f64_vec(const std::vector<double>& v);
  void put_string(const std::string& s);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Matching decoder; all getters throw std::runtime_error on truncation.
/// It reads either a buffer it owns or a caller's byte range, which must
/// outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::vector<std::uint8_t> data)
      : owned_(std::move(data)), data_(owned_.data()), size_(owned_.size()) {}
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  std::uint64_t get_u64();
  double get_f64();
  std::vector<std::uint8_t> get_bytes();
  std::vector<double> get_f64_vec();
  std::string get_string();

  bool exhausted() const noexcept { return pos_ == size_; }

  /// Bytes left to read.  Decoders validate untrusted element counts
  /// against this before reserving (count <= remaining() / min bytes per
  /// element), so a forged length prefix cannot drive a huge allocation.
  std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  void need(std::size_t n) const;
  std::vector<std::uint8_t> owned_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// FNV-1a of a string; used to derive cache file names from config keys.
std::uint64_t fnv1a(const std::string& text) noexcept;

/// Little-endian 64-bit load and store: one word move on little-endian
/// hosts, byte order fixed everywhere.
inline std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range; used to
/// guard persistent journals (campaign logs) against torn or bit-rotted
/// writes.  crc32(...) of an empty range is 0.  Slice-by-8: eight table
/// lookups per 8-byte word, no dependency between them.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// The active cache directory, or empty if caching is disabled.
std::string cache_dir();

/// Loads the payload cached under `key`, verifying that the stored key
/// matches (hash collisions fall back to a miss).  Returns nullopt on miss,
/// disabled cache, or corrupt file.
std::optional<std::vector<std::uint8_t>> cache_load(const std::string& key);

/// Stores payload under `key` (atomic rename); no-op if caching is disabled.
void cache_store(const std::string& key, const std::vector<std::uint8_t>& payload);

}  // namespace ftb::util
