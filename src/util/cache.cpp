#include "util/cache.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/durable_file.h"

namespace ftb::util {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d43414348ull;  // "FTB-CACH"
constexpr std::uint64_t kVersion = 1;

}  // namespace

void BinaryWriter::put_u64(std::uint64_t v) {
  const std::size_t at = buf_.size();
  buf_.resize(at + 8);
  store_le64(buf_.data() + at, v);
}

void BinaryWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void BinaryWriter::put_bytes(const std::vector<std::uint8_t>& v) {
  put_u64(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void BinaryWriter::put_f64_vec(const std::vector<double>& v) {
  put_u64(v.size());
  const std::size_t at = buf_.size();
  buf_.resize(at + 8 * v.size());
  std::uint8_t* out = buf_.data() + at;
  for (double x : v) {
    store_le64(out, std::bit_cast<std::uint64_t>(x));
    out += 8;
  }
}

void BinaryWriter::put_string(const std::string& s) {
  put_u64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryReader::need(std::size_t n) const {
  // Compare against the remaining span, not pos_ + n: a length prefix near
  // SIZE_MAX would wrap pos_ + n and sail past the bound.
  if (n > size_ - pos_) {
    throw std::runtime_error("BinaryReader: truncated payload");
  }
}

std::uint64_t BinaryReader::get_u64() {
  need(8);
  const std::uint64_t v = load_le64(data_ + pos_);
  pos_ += 8;
  return v;
}

double BinaryReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::vector<std::uint8_t> BinaryReader::get_bytes() {
  const std::uint64_t n = get_u64();
  need(n);
  std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return out;
}

std::vector<double> BinaryReader::get_f64_vec() {
  const std::uint64_t n = get_u64();
  if (n > remaining() / 8) {
    throw std::runtime_error("BinaryReader: truncated payload");
  }
  std::vector<double> out(n);
  for (double& x : out) {
    x = std::bit_cast<double>(load_le64(data_ + pos_));
    pos_ += 8;
  }
  return out;
}

std::string BinaryReader::get_string() {
  const std::uint64_t n = get_u64();
  need(n);
  std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return out;
}

std::uint64_t fnv1a(const std::string& text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// kCrcTables[0] is the classic byte table; kCrcTables[k][b] advances the
/// CRC of byte b past k further zero bytes, so eight lookups fold a whole
/// word in at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    tables[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = tables[k - 1][b];
      tables[k][b] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint64_t word = load_le64(data) ^ crc;
    const auto lo = static_cast<std::uint32_t>(word);
    const auto hi = static_cast<std::uint32_t>(word >> 32);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

std::string cache_dir() {
  const char* env = std::getenv("FTB_CACHE_DIR");
  std::string dir = env ? env : ".ftb_cache";
  if (dir == "off" || dir == "0" || dir.empty()) return {};
  return dir;
}

namespace {

std::string cache_path(const std::string& key) {
  const std::string dir = cache_dir();
  if (dir.empty()) return {};
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.bin",
                static_cast<unsigned long long>(fnv1a(key)));
  return dir + "/" + name;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> cache_load(const std::string& key) {
  const std::string path = cache_path(key);
  if (path.empty()) return std::nullopt;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> data{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  try {
    BinaryReader reader(std::move(data));
    if (reader.get_u64() != kMagic) return std::nullopt;
    if (reader.get_u64() != kVersion) return std::nullopt;
    if (reader.get_string() != key) return std::nullopt;  // hash collision
    return reader.get_bytes();
  } catch (const std::runtime_error&) {
    return std::nullopt;  // corrupt or truncated file: treat as a miss
  }
}

void cache_store(const std::string& key,
                 const std::vector<std::uint8_t>& payload) {
  const std::string path = cache_path(key);
  if (path.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir(), ec);
  if (ec) return;

  BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(key);
  writer.put_bytes(payload);

  // Best-effort durable publish; a failed write degrades to a cache miss.
  write_file_durable(path, writer.buffer());
}

}  // namespace ftb::util
