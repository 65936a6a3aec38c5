// Durable publication tests: write_file_durable must be atomic and honest
// (a failed fsync is a failed write, with the previous file intact), and
// AppendLog must never let a torn tail accumulate in front of later
// appends.  The chaos layer supplies the fault injection, which is exactly
// the failure-propagation discipline the paper applies to programs, turned
// on the persistence layer itself.
#include "util/durable_file.h"

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "boundary/boundary.h"
#include "boundary/serialize.h"
#include "campaign/log.h"
#include "chaos/chaos.h"

namespace ftb::util {
namespace {

namespace fs = std::filesystem;

class DurableFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ftb_durable_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    chaos::disable();
    fs::remove_all(dir_);
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::optional<std::string> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void arm_chaos(double short_io, double eintr, double write_error,
                        double fsync_error) {
    chaos::ChaosOptions options;
    options.enabled = true;
    options.seed = 11;
    options.short_io = short_io;
    options.eintr = eintr;
    options.write_error = write_error;
    options.fsync_error = fsync_error;
    chaos::configure(options);
  }

  fs::path dir_;
};

TEST_F(DurableFileTest, RoundTripsAndOverwrites) {
  const std::string target = path("data.bin");
  ASSERT_TRUE(write_file_durable(target, std::string("first")));
  EXPECT_EQ(slurp(target), "first");
  ASSERT_TRUE(write_file_durable(target, std::string("second, longer")));
  EXPECT_EQ(slurp(target), "second, longer");
}

TEST_F(DurableFileTest, ShortWritesAndEintrAreAbsorbed) {
  arm_chaos(/*short_io=*/0.5, /*eintr=*/0.3, /*write_error=*/0.0,
            /*fsync_error=*/0.0);
  const std::string target = path("data.bin");
  std::string payload(8192, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i % 251);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(write_file_durable(target, payload)) << "iteration " << i;
  }
  chaos::disable();
  EXPECT_EQ(slurp(target), payload);
  EXPECT_GT(chaos::stats().total(), 0u);
}

TEST_F(DurableFileTest, FailedFsyncLeavesThePreviousFileIntact) {
  const std::string target = path("data.bin");
  ASSERT_TRUE(write_file_durable(target, std::string("durable")));

  arm_chaos(0.0, 0.0, /*write_error=*/0.0, /*fsync_error=*/1.0);
  std::string error;
  EXPECT_FALSE(write_file_durable(target, std::string("lost"), &error));
  EXPECT_FALSE(error.empty());
  chaos::disable();

  EXPECT_EQ(slurp(target), "durable");
  // The staging tmp must not linger either.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir_)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST_F(DurableFileTest, WriteErrorFailsCleanly) {
  arm_chaos(0.0, 0.0, /*write_error=*/1.0, /*fsync_error=*/0.0);
  std::string error;
  EXPECT_FALSE(write_file_durable(path("data.bin"), std::string("x"), &error));
  EXPECT_FALSE(error.empty());
  chaos::disable();
  EXPECT_FALSE(fs::exists(path("data.bin")));
}

// Regression for the atomic-rename sites that used to skip fsync: a save
// that cannot be made durable must report failure and leave the previous
// artifact untouched, not ack and hope.
TEST_F(DurableFileTest, CampaignLogSaveSurfacesFsyncFailure) {
  campaign::CampaignLog log("daxpy|tiny|test");
  const std::string target = path("job.clog");
  ASSERT_TRUE(log.save(target));
  const auto before = slurp(target);
  ASSERT_TRUE(before.has_value());

  arm_chaos(0.0, 0.0, 0.0, /*fsync_error=*/1.0);
  EXPECT_FALSE(log.save(target));
  chaos::disable();
  EXPECT_EQ(slurp(target), before);
  EXPECT_TRUE(campaign::CampaignLog::load(target).has_value());
}

TEST_F(DurableFileTest, BoundarySaveSurfacesFsyncFailure) {
  const boundary::FaultToleranceBoundary built(std::vector<double>(8, 0.5));
  const std::string target = path("b.boundary");
  ASSERT_TRUE(boundary::save_to_file(built, "cfg", target));
  const auto before = slurp(target);
  ASSERT_TRUE(before.has_value());

  arm_chaos(0.0, 0.0, 0.0, /*fsync_error=*/1.0);
  EXPECT_FALSE(boundary::save_to_file(built, "cfg", target));
  chaos::disable();
  EXPECT_EQ(slurp(target), before);
  EXPECT_TRUE(boundary::load_from_file(target, "cfg").has_value());
}

TEST_F(DurableFileTest, AppendLogRollsBackTornAppends) {
  const std::string target = path("records.log");
  AppendLog log;
  ASSERT_TRUE(log.open(target));
  const std::string first = "record-one";
  ASSERT_TRUE(log.append(first.data(), first.size()));
  EXPECT_EQ(log.size(), first.size());

  // A failed fsync mid-append must truncate back to the last good record.
  arm_chaos(0.0, 0.0, 0.0, /*fsync_error=*/1.0);
  const std::string doomed = "record-two-doomed";
  std::string error;
  EXPECT_FALSE(log.append(doomed.data(), doomed.size(), &error));
  EXPECT_FALSE(error.empty());
  chaos::disable();
  EXPECT_EQ(log.size(), first.size());

  const std::string third = "record-three";
  ASSERT_TRUE(log.append(third.data(), third.size()));
  log.close();

  // The file holds exactly record one then record three, contiguous.
  EXPECT_EQ(slurp(target), first + third);
}

TEST(Frames, ScanStopsAtTheFirstTornOrCorruptFrame) {
  std::vector<std::uint8_t> bytes = {0xAA, 0xBB};  // a two-byte preamble
  const std::vector<std::uint8_t> one = {1, 2, 3};
  const std::vector<std::uint8_t> two = {4, 5, 6, 7, 8, 9, 10, 11, 12};
  append_frame(bytes, one.data(), one.size());
  const std::vector<std::uint8_t> framed_two = frame_record(two);
  bytes.insert(bytes.end(), framed_two.begin(), framed_two.end());
  const std::size_t second_at = 2 + kFrameOverhead + one.size();

  const FrameScan clean = scan_frames(bytes, 2, 64);
  EXPECT_EQ(clean.tail, FrameTail::kClean);
  EXPECT_EQ(clean.end, bytes.size());
  ASSERT_EQ(clean.frames.size(), 2u);
  EXPECT_EQ(clean.frames[0].offset, 2u);
  EXPECT_EQ(clean.frames[1].offset, second_at);
  EXPECT_EQ(std::vector<std::uint8_t>(clean.frames[1].payload.begin(),
                                      clean.frames[1].payload.end()),
            two);

  // Every cut inside the second frame keeps exactly the first.
  for (std::size_t cut = second_at + 1; cut < bytes.size(); ++cut) {
    const FrameScan torn =
        scan_frames(std::span(bytes).first(cut), 2, 64);
    ASSERT_EQ(torn.frames.size(), 1u) << cut;
    EXPECT_EQ(torn.end, second_at);
    EXPECT_EQ(torn.tail, cut < second_at + kFrameOverhead
                             ? FrameTail::kTornHeader
                             : FrameTail::kTornPayload);
  }

  std::vector<std::uint8_t> rotted = bytes;
  rotted.back() ^= 0x01;
  const FrameScan bad_crc = scan_frames(rotted, 2, 64);
  EXPECT_EQ(bad_crc.tail, FrameTail::kBadCrc);
  EXPECT_EQ(bad_crc.frames.size(), 1u);

  const FrameScan oversized = scan_frames(bytes, 2, 8);
  EXPECT_EQ(oversized.tail, FrameTail::kOversized);
  EXPECT_EQ(oversized.tail_len, two.size());
  EXPECT_EQ(oversized.frames.size(), 1u);
  EXPECT_EQ(oversized.end, second_at);
}

}  // namespace
}  // namespace ftb::util
