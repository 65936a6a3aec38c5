// Journal determinism under a crash: an in-progress campaign journal cut at
// any byte of its last frame loads as exactly its intact frames, and a
// resume from it -- or from a complete v2 or v3 journal of the same partial
// run -- ends in the same compacted journal bytes as an uninterrupted run.
// Built into the `determinism` binary with the artifact checks.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/checkpoint.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "util/cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFlushEvery = 4;
constexpr std::size_t kChunks = 5;
constexpr std::size_t kKeptChunks = 3;  // chunks flushed before the "crash"

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A complete v2 journal (no flags word) of `log`, framed by hand.
std::string serialize_v2(const CampaignLog& log) {
  util::BinaryWriter writer;
  writer.put_u64(0x4654422d434c4f47ull);  // "FTB-CLOG"
  writer.put_u64(2);
  writer.put_string(log.config_key());
  writer.put_u64(log.size());
  for (const ExperimentRecord& record : log.records()) {
    writer.put_u64(record.id);
    writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
    writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
    writer.put_f64(record.result.injected_error);
    writer.put_f64(record.result.output_error);
    writer.put_u64(record.result.crash_site);
  }
  writer.put_u64(util::crc32(writer.buffer().data(), writer.buffer().size()));
  return {writer.buffer().begin(), writer.buffer().end()};
}

class TornJournal : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("ftb_torn_journal_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    util::Rng rng(41);
    ids_ = sample_uniform(rng, golden_.sample_space_size(),
                          kFlushEvery * kChunks);

    // The uninterrupted run's compacted journal.
    expected_ = read_bytes(run(dir_ / "uninterrupted.clog").path);

    // A run whose journal is copied after its third chunk flush: what a
    // kill right then leaves on disk.  The byte count after the second
    // flush marks where the last frame starts.
    CheckpointOptions options = base(dir_ / "interrupted.clog");
    std::size_t flushed = 0;
    options.on_progress = [&](const CheckpointProgress& progress) {
      if (progress.chunk.empty() || flushed == kKeptChunks) return;
      ++flushed;
      kept_.insert(kept_.end(), progress.chunk.begin(), progress.chunk.end());
      if (flushed == kKeptChunks - 1) last_frame_at_ = fs::file_size(options.path);
      if (flushed == kKeptChunks) journal_ = read_bytes(options.path);
    };
    (void)run_campaign_checkpointed(*program_, golden_, ids_, options);
    ASSERT_EQ(kept_.size(), kFlushEvery * kKeptChunks);
    ASSERT_GT(last_frame_at_, 0u);
    ASSERT_GT(journal_.size(), last_frame_at_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  CheckpointOptions base(const fs::path& path) {
    CheckpointOptions options;
    options.path = path.string();
    options.flush_every = kFlushEvery;
    options.pool = &pool_;
    return options;
  }

  CheckpointOptions run(const fs::path& path) {
    const CheckpointOptions options = base(path);
    (void)run_campaign_checkpointed(*program_, golden_, ids_, options);
    return options;
  }

  /// Ids of `records`, in their order.
  static std::vector<ExperimentId> ids_of(
      std::span<const ExperimentRecord> records) {
    std::vector<ExperimentId> out;
    for (const ExperimentRecord& record : records) out.push_back(record.id);
    return out;
  }

  fi::ProgramPtr program_ = kernels::make_program("daxpy", kernels::Preset::kTiny);
  fi::GoldenRun golden_ = fi::run_golden(*program_);
  util::ThreadPool pool_{2};
  fs::path dir_;
  std::vector<ExperimentId> ids_;
  std::string expected_;
  std::string journal_;
  std::vector<ExperimentRecord> kept_;
  std::size_t last_frame_at_ = 0;
};

TEST_F(TornJournal, IntactJournalLoadsEveryFlushedRecordInOrder) {
  const auto log = CampaignLog::deserialize(journal_);
  ASSERT_TRUE(log.has_value());
  EXPECT_EQ(log->config_key(), program_->config_key());
  EXPECT_EQ(ids_of(log->records()), ids_of(kept_));
  CampaignLog snapshot(program_->config_key());
  snapshot.append(kept_);
  EXPECT_EQ(log->serialize(), snapshot.serialize());
}

TEST_F(TornJournal, EveryCutInTheLastFrameLoadsTheIntactFramesAndResumes) {
  const std::span<const ExperimentRecord> intact(
      kept_.data(), kFlushEvery * (kKeptChunks - 1));
  const fs::path path = dir_ / "torn.clog";
  for (std::size_t cut = last_frame_at_; cut < journal_.size(); ++cut) {
    SCOPED_TRACE("journal cut at byte " + std::to_string(cut));
    const std::string torn = journal_.substr(0, cut);
    write_bytes(path, torn);
    std::string error;
    const auto log = CampaignLog::load(path.string(), &error);
    ASSERT_TRUE(log.has_value()) << error;
    ASSERT_EQ(ids_of(log->records()), ids_of(intact));
    for (std::size_t i = 0; i < intact.size(); ++i) {
      ASSERT_EQ(log->records()[i].result.outcome, intact[i].result.outcome);
      ASSERT_EQ(log->records()[i].result.injected_error,
                intact[i].result.injected_error);
    }

    const CheckpointRunResult resumed = run_campaign_checkpointed(
        *program_, golden_, ids_, base(path));
    ASSERT_EQ(resumed.skipped, intact.size());
    ASSERT_EQ(read_bytes(path), expected_);
  }
}

TEST_F(TornJournal, CorruptLastFrameIsDroppedAndResumes) {
  const fs::path path = dir_ / "rotted.clog";
  for (std::size_t at = last_frame_at_; at < journal_.size(); ++at) {
    SCOPED_TRACE("bit flip at byte " + std::to_string(at));
    std::string rotted = journal_;
    rotted[at] = static_cast<char>(rotted[at] ^ 0x10);
    write_bytes(path, rotted);
    const auto log = CampaignLog::load(path.string());
    ASSERT_TRUE(log.has_value());
    ASSERT_EQ(log->size(), kFlushEvery * (kKeptChunks - 1));
  }
  (void)run_campaign_checkpointed(*program_, golden_, ids_, base(path));
  EXPECT_EQ(read_bytes(path), expected_);
}

TEST_F(TornJournal, CompleteV2AndV3JournalsResumeToTheSameBytes) {
  CampaignLog partial(program_->config_key());
  partial.append(kept_);
  const fs::path v3 = dir_ / "partial_v3.clog";
  ASSERT_TRUE(partial.save(v3.string()));
  const fs::path v2 = dir_ / "partial_v2.clog";
  write_bytes(v2, serialize_v2(partial));

  for (const fs::path& path : {v3, v2}) {
    SCOPED_TRACE(path.filename().string());
    const CheckpointRunResult resumed =
        run_campaign_checkpointed(*program_, golden_, ids_, base(path));
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.skipped, kept_.size());
    // One flush per chunk still owed, plus the final compaction.
    EXPECT_EQ(resumed.flushes, kChunks - kKeptChunks + 1);
    EXPECT_EQ(read_bytes(path), expected_);
  }
}

}  // namespace
}  // namespace ftb::campaign
