// Known-answer tests for util::crc32 and byte pins for every CRC-framed
// format.  The format tests elsewhere compute their expected CRC with the
// function under test, so a wrong crc32 would pass them all; these do not.
// The pinned sizes and digests were recorded from the byte-at-a-time codec
// and nibble-table CRC that the word-at-a-time ones replaced, so a change to
// any on-disk or on-wire byte fails here.  The digest is FNV-1a, not a CRC:
// the CRC of a file that ends in its own CRC is the same for every file.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boundary/serialize.h"
#include "campaign/log.h"
#include "net/frame.h"
#include "service/ledger.h"
#include "util/cache.h"

namespace ftb {
namespace {

/// The textbook reflected CRC-32 (IEEE 802.3), one bit at a time.
std::uint32_t reference_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xffffffffu;
}

/// 64-bit FNV-1a of a byte string, written out here so the pins do not
/// depend on the library's own hashing.
template <typename Bytes>
std::uint64_t digest(const Bytes& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto byte : bytes) {
    hash ^= static_cast<std::uint8_t>(byte);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(Crc32, KnownAnswers) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                        check.size()),
            0xCBF43926u);
  EXPECT_EQ(util::crc32(nullptr, 0), 0u);
  const std::uint8_t zero = 0;
  EXPECT_EQ(util::crc32(&zero, 0), 0u);
  EXPECT_EQ(util::crc32(&zero, 1), 0xD202EF8Du);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> buffer(8 + 257);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::uint8_t& byte : buffer) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<std::uint8_t>(state >> 56);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 257; ++length) {
      const std::uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(util::crc32(data, length), reference_crc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(FormatPins, CampaignLog) {
  campaign::CampaignLog log("cg|paper|pin");
  std::vector<campaign::ExperimentRecord> records;
  for (std::uint64_t i = 0; i < 9; ++i) {
    campaign::ExperimentRecord record;
    record.id = i * 97 + 3;
    record.result.outcome = static_cast<fi::Outcome>(i % 5);
    record.result.crash_reason = static_cast<fi::CrashReason>(i % 3);
    record.result.injected_error = std::ldexp(1.0, static_cast<int>(i)) / 3.0;
    record.result.output_error = i % 2 == 0 ? 0.0 : -1.5 * static_cast<double>(i);
    record.result.crash_site = i * 11;
    record.result.detector_fired = i % 4 == 1;
    records.push_back(record);
  }
  log.append(records);
  const std::string bytes = log.serialize();
  EXPECT_EQ(bytes.size(), 556u);
  EXPECT_EQ(digest(bytes), 0x64da1eddb83233e6ull);
}

TEST(FormatPins, BoundaryArtifact) {
  std::vector<double> thresholds;
  std::vector<std::uint8_t> exact;
  for (int i = 0; i < 17; ++i) {
    thresholds.push_back(i % 5 == 0 ? boundary::FaultToleranceBoundary::kUnbounded
                                    : std::ldexp(1.0, i - 8));
    exact.push_back(static_cast<std::uint8_t>(i % 3 == 0));
  }
  const boundary::FaultToleranceBoundary built(thresholds, exact);
  const std::string bytes = boundary::serialize(built, "lu|paper|pin");
  EXPECT_EQ(bytes.size(), 213u);
  EXPECT_EQ(digest(bytes), 0x509ed8e3b98a18b4ull);
}

TEST(FormatPins, LedgerRecords) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("ftb_format_pins_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "jobs.ledger").string();
  {
    service::JobLedger ledger;
    service::JobLedger::ReplayResult replay;
    ASSERT_TRUE(ledger.open(path, &replay));
    service::SubmitCampaignReq req;
    req.kernel = "fft";
    req.preset = "paper";
    req.seed = 4099;
    req.batch = 4000;
    req.workers = 4;
    req.flush_every = 512;
    req.timeout_ms = 250;
    req.quarantine_after = 3;
    ASSERT_TRUE(ledger.append_submitted(7, req));
    ASSERT_TRUE(ledger.append_state(7, service::JobState::kRunning, "pinned"));
  }
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  EXPECT_EQ(bytes.size(), 150u);
  EXPECT_EQ(digest(bytes), 0x6da99cf65fea5950ull);
  fs::remove_all(dir);
}

TEST(FormatPins, NetFrame) {
  net::Frame frame;
  frame.type = 0x1234;
  frame.deadline_ms = 250;
  for (int i = 0; i < 37; ++i) {
    frame.payload.push_back(static_cast<std::uint8_t>(i * 29 + 1));
  }
  const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
  EXPECT_EQ(bytes.size(), 61u);
  EXPECT_EQ(digest(bytes), 0xd741524a313cc9c0ull);
}

}  // namespace
}  // namespace ftb
