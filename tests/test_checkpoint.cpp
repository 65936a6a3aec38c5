#include "campaign/checkpoint.h"

#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "campaign/sampler.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "telemetry/events.h"
#include "util/rng.h"

namespace ftb::campaign {
namespace {

std::string temp_journal(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("ftb_ckpt_" + std::string(tag) + "_" + std::to_string(::getpid()) +
           ".bin"))
      .string();
}

struct Prepared {
  explicit Prepared(const char* name)
      : program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(2) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
};

TEST(Checkpoint, FreshRunJournalsEverything) {
  Prepared p("daxpy");
  util::Rng rng(31);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 90);

  CheckpointOptions options;
  options.path = temp_journal("fresh");
  options.flush_every = 25;
  options.pool = &p.pool;
  const CheckpointRunResult run =
      run_campaign_checkpointed(*p.program, p.golden, ids, options);

  EXPECT_FALSE(run.resumed);
  EXPECT_EQ(run.skipped, 0u);
  EXPECT_EQ(run.executed, ids.size());
  // ceil(90/25) = 4 chunk flushes + 1 final flush.
  EXPECT_EQ(run.flushes, 5u);

  std::vector<ExperimentId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  EXPECT_EQ(run.log.ids(), sorted);

  // The journal on disk holds the same final state.
  const auto reloaded = CampaignLog::load(options.path);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->ids(), sorted);
  std::filesystem::remove(options.path);
}

TEST(Checkpoint, ResumedRunMatchesOneShot) {
  // The ISSUE acceptance scenario: interrupt a campaign after a partial
  // run, resume it, and the final journal must equal the uninterrupted
  // one after dedupe.
  Prepared p("stencil2d");
  util::Rng rng(32);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 120);

  // Uninterrupted reference run.
  CheckpointOptions reference;
  reference.path = temp_journal("oneshot");
  reference.flush_every = 1000;
  reference.pool = &p.pool;
  const CheckpointRunResult one_shot =
      run_campaign_checkpointed(*p.program, p.golden, ids, reference);

  // "Interrupted" run: only the first half of the ids is attempted, so the
  // journal ends mid-campaign exactly as a killed process would leave it
  // (the journal is flushed after every chunk).
  CheckpointOptions options;
  options.path = temp_journal("resume");
  options.flush_every = 30;
  options.pool = &p.pool;
  const std::span<const ExperimentId> first_half(ids.data(), 60);
  const CheckpointRunResult partial =
      run_campaign_checkpointed(*p.program, p.golden, first_half, options);
  EXPECT_FALSE(partial.resumed);
  EXPECT_EQ(partial.executed, 60u);

  // Resume with the full id set: only the remainder executes.
  const CheckpointRunResult resumed =
      run_campaign_checkpointed(*p.program, p.golden, ids, options);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.skipped + resumed.executed, ids.size());
  EXPECT_LE(resumed.executed, 60u);  // nothing from the first half re-ran

  ASSERT_EQ(resumed.log.size(), one_shot.log.size());
  for (std::size_t i = 0; i < one_shot.log.size(); ++i) {
    const ExperimentRecord& a = one_shot.log.records()[i];
    const ExperimentRecord& b = resumed.log.records()[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.result.outcome, b.result.outcome) << a.id;
    EXPECT_EQ(a.result.crash_reason, b.result.crash_reason) << a.id;
    EXPECT_DOUBLE_EQ(a.result.injected_error, b.result.injected_error) << a.id;
    EXPECT_DOUBLE_EQ(a.result.output_error, b.result.output_error) << a.id;
  }
  std::filesystem::remove(reference.path);
  std::filesystem::remove(options.path);
}

TEST(Checkpoint, SandboxedChunksWork) {
  // Chunks routed through the worker pool (the isolation backend) produce
  // the same journal as the in-process thread pool.
  Prepared p("daxpy");
  util::Rng rng(33);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 40);

  CheckpointOptions options;
  options.path = temp_journal("sandboxed");
  options.flush_every = 15;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  const CheckpointRunResult run =
      run_campaign_checkpointed(*p.program, p.golden, ids, options);
  EXPECT_EQ(run.executed, ids.size());
  EXPECT_GE(run.supervisor_stats.chunks_dispatched, 3u);  // >= one per chunk
  EXPECT_EQ(run.supervisor_stats.fallback_experiments, 0u);

  CheckpointOptions in_process;
  in_process.path = temp_journal("sandboxed_baseline");
  in_process.flush_every = 15;
  in_process.pool = &p.pool;
  const CheckpointRunResult baseline =
      run_campaign_checkpointed(*p.program, p.golden, ids, in_process);
  EXPECT_EQ(run.log.serialize(), baseline.log.serialize());
  std::filesystem::remove(options.path);
  std::filesystem::remove(in_process.path);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A chunk source that runs chunks last-first on the runner's own backend
/// and keeps one finished chunk in hand, so a stop always finds a finished
/// chunk the runner has not merged yet.
class ReversedChunks final : public ChunkSource {
 public:
  void start(std::span<const std::span<const ExperimentId>> chunks,
             const SupervisorOptions&, ChunkRunner run_local) override {
    chunks_ = chunks;
    unrun_ = chunks.size();
    run_local_ = std::move(run_local);
  }

  std::optional<std::vector<ExperimentRecord>> next(
      const std::function<bool()>& should_stop) override {
    while (unrun_ > 0 && finished_.size() < 2 && !should_stop()) {
      finished_.push_back(run_local_(chunks_[--unrun_]));
    }
    if (finished_.empty()) return std::nullopt;
    std::vector<ExperimentRecord> batch = std::move(finished_.front());
    finished_.pop_front();
    return batch;
  }

  void finish() override { ++finishes; }

  int finishes = 0;

 private:
  std::span<const std::span<const ExperimentId>> chunks_;
  std::size_t unrun_ = 0;
  ChunkRunner run_local_;
  std::deque<std::vector<ExperimentRecord>> finished_;
};

TEST(Checkpoint, ChunkSourceOrderDoesNotChangeTheJournal) {
  Prepared p("daxpy");
  util::Rng rng(35);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 100);

  for (const char* tag : {"source_local", "source_reversed", "source_drained"}) {
    std::filesystem::remove(temp_journal(tag));
  }
  CheckpointOptions local;
  local.path = temp_journal("source_local");
  local.flush_every = 20;
  local.pool = &p.pool;
  (void)run_campaign_checkpointed(*p.program, p.golden, ids, local);
  const std::string expected = file_bytes(local.path);

  // Every chunk, returned last-first: the same journal bytes.
  ReversedChunks reversed;
  CheckpointOptions options = local;
  options.path = temp_journal("source_reversed");
  options.chunk_source = &reversed;
  const CheckpointRunResult run =
      run_campaign_checkpointed(*p.program, p.golden, ids, options);
  EXPECT_FALSE(run.stopped);
  EXPECT_EQ(run.executed, ids.size());
  EXPECT_EQ(run.flushes, 6u);  // five chunks + the final dedupe flush
  EXPECT_EQ(reversed.finishes, 1);
  EXPECT_EQ(file_bytes(options.path), expected);

  // A stop after two merged chunks still merges the third, which had
  // already finished: the last three chunks are journalled.
  ReversedChunks stopping;
  CheckpointOptions drained = local;
  drained.path = temp_journal("source_drained");
  drained.chunk_source = &stopping;
  std::size_t merged = 0;
  drained.on_progress = [&](const CheckpointProgress& progress) {
    if (!progress.chunk.empty()) ++merged;
  };
  drained.should_stop = [&] { return merged >= 2; };
  const CheckpointRunResult stopped =
      run_campaign_checkpointed(*p.program, p.golden, ids, drained);
  EXPECT_TRUE(stopped.stopped);
  EXPECT_EQ(stopped.executed, 60u);
  EXPECT_EQ(stopping.finishes, 1);
  const std::vector<ExperimentId> last_three(ids.end() - 60, ids.end());
  EXPECT_EQ(stopped.log.ids(), last_three);
  const auto on_disk = CampaignLog::load(drained.path);
  ASSERT_TRUE(on_disk.has_value());
  EXPECT_EQ(on_disk->ids(), last_three);

  // Resuming that journal locally converges to the same bytes.
  drained.chunk_source = nullptr;
  drained.on_progress = nullptr;
  drained.should_stop = nullptr;
  const CheckpointRunResult resumed =
      run_campaign_checkpointed(*p.program, p.golden, ids, drained);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.skipped, 60u);
  EXPECT_EQ(resumed.executed, 40u);
  EXPECT_EQ(file_bytes(drained.path), expected);

  std::filesystem::remove(local.path);
  std::filesystem::remove(options.path);
  std::filesystem::remove(drained.path);
}

TEST(Checkpoint, FlushesAppendOnlyTheMergedChunk) {
  // While a run is in progress each flush appends one frame of the chunk it
  // merged, so the journal grows by O(chunk) per flush; the final flush
  // compacts it to the bytes save() writes.  Telemetry reports both.
  Prepared p("daxpy");
  util::Rng rng(36);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, p.golden.sample_space_size(), 100);

  telemetry::Telemetry telemetry;
  telemetry.set_enabled(true);
  CheckpointOptions options;
  options.path = temp_journal("append_only");
  options.flush_every = 20;
  options.pool = &p.pool;
  options.telemetry = &telemetry;
  std::vector<std::uintmax_t> sizes;
  options.on_progress = [&](const CheckpointProgress&) {
    sizes.push_back(std::filesystem::file_size(options.path));
  };
  const CheckpointRunResult run =
      run_campaign_checkpointed(*p.program, p.golden, ids, options);

  ASSERT_EQ(sizes.size(), 6u);  // five chunk flushes + the compaction
  constexpr std::uintmax_t kFrameBytes = 8 + 20 * 7 * 8;
  for (std::size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(sizes[i] - sizes[i - 1], kFrameBytes) << "flush " << i;
  }
  const std::string compacted = run.log.serialize();
  EXPECT_EQ(file_bytes(options.path), compacted);
  EXPECT_EQ(sizes[5], compacted.size());

  auto& metrics = telemetry.metrics();
  EXPECT_EQ(metrics.counter("checkpoint.flushes").value(), 6u);
  EXPECT_EQ(metrics.counter("checkpoint.compactions").value(), 1u);
  EXPECT_EQ(metrics.counter("checkpoint.flush_bytes").value(),
            sizes[4] + compacted.size());
  std::vector<double> flush_bytes;
  for (const telemetry::TraceEvent& event : telemetry.events()) {
    if (event.name != "checkpoint.flush") continue;
    for (const auto& [key, value] : event.args) {
      if (key == "bytes") flush_bytes.push_back(value);
    }
  }
  ASSERT_EQ(flush_bytes.size(), 6u);
  EXPECT_EQ(flush_bytes[0], static_cast<double>(sizes[0]));
  EXPECT_EQ(flush_bytes[1], static_cast<double>(kFrameBytes));
  EXPECT_EQ(flush_bytes[5], static_cast<double>(compacted.size()));
  std::filesystem::remove(options.path);
}

TEST(Checkpoint, ZeroSandboxTimeoutGetsFallbackDeadline) {
  // Regression: a timeout of 0 disables the per-experiment watchdog, so a
  // checkpointed campaign passing it through used to hang forever on the
  // first runaway flip.  The supervisor substitutes kFallbackDeadlineMs for
  // a zero heartbeat, the snapshot server does the same for a zero
  // snapshot timeout, and both classify the spin as a Hang.
  const kernels::HazardSpinProgram program{kernels::HazardSpinConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);

  const std::vector<ExperimentId> ids = {
      encode(0, 0),  // benign
      encode(kernels::HazardSpinProgram::kDecaySite, 52),  // infinite spin
  };

  for (const bool snapshots : {false, true}) {
    SCOPED_TRACE(snapshots ? "snapshot pool" : "pool");
    CheckpointOptions options;
    options.path = temp_journal("zero_timeout");
    options.flush_every = 8;
    options.use_supervisor = true;
    options.supervisor.pool.workers = 1;
    options.supervisor.quarantine_after = 1;
    options.supervisor.pool.heartbeat_timeout_ms = 0;  // the hazardous value
    options.supervisor.pool.use_snapshots = snapshots;
    options.supervisor.pool.snapshot.timeout_ms = 0;
    const CheckpointRunResult run =
        run_campaign_checkpointed(program, golden, ids, options);

    ASSERT_EQ(run.log.size(), ids.size());
    EXPECT_EQ(run.log.records()[1].result.outcome, fi::Outcome::kHang);
    EXPECT_EQ(run.log.records()[1].result.crash_reason, fi::CrashReason::kNone);
    std::filesystem::remove(options.path);
  }
}

TEST(Checkpoint, ResumeAcrossLethalExperiments) {
  // A hazard campaign interrupted after the journal saw a signal-crash
  // resumes cleanly, keeps the crash record, and ends byte-identical to an
  // uninterrupted run.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  const std::vector<ExperimentId> ids = {
      encode(0, 1),
      encode(program.divisor_site(0), 62),  // SIGFPE in the worker
      encode(1, 2),
      encode(2, 3),
  };

  CheckpointOptions options;
  options.path = temp_journal("lethal");
  options.flush_every = 2;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  const std::span<const ExperimentId> first(ids.data(), 2);
  (void)run_campaign_checkpointed(program, golden, first, options);

  const CheckpointRunResult resumed =
      run_campaign_checkpointed(program, golden, ids, options);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.skipped, 2u);
  const CrashReasonCounts reasons =
      count_crash_reasons(resumed.log.records());
  EXPECT_EQ(reasons.isolation_crashes(), 1u);

  CheckpointOptions uninterrupted = options;
  uninterrupted.path = temp_journal("lethal_uninterrupted");
  const CheckpointRunResult one_shot =
      run_campaign_checkpointed(program, golden, ids, uninterrupted);
  EXPECT_EQ(resumed.log.serialize(), one_shot.log.serialize());
  std::filesystem::remove(options.path);
  std::filesystem::remove(uninterrupted.path);
}

TEST(Checkpoint, RejectsForeignJournal) {
  Prepared daxpy("daxpy");
  util::Rng rng(34);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, daxpy.golden.sample_space_size(), 10);
  CheckpointOptions options;
  options.path = temp_journal("foreign");
  options.pool = &daxpy.pool;
  (void)run_campaign_checkpointed(*daxpy.program, daxpy.golden, ids, options);

  Prepared cg("cg");
  EXPECT_THROW(
      run_campaign_checkpointed(*cg.program, cg.golden, ids, options),
      std::invalid_argument);
  std::filesystem::remove(options.path);
}

TEST(Checkpoint, RejectsCorruptJournal) {
  Prepared p("daxpy");
  CheckpointOptions options;
  options.path = temp_journal("corrupt");
  options.pool = &p.pool;
  {
    std::ofstream out(options.path, std::ios::binary | std::ios::trunc);
    out << "this is not a campaign log, it only plays one on disk........";
  }
  const std::vector<ExperimentId> ids = {0, 1, 2};
  EXPECT_THROW(run_campaign_checkpointed(*p.program, p.golden, ids, options),
               std::runtime_error);
  std::filesystem::remove(options.path);
}

TEST(Checkpoint, RejectsEmptyPath) {
  Prepared p("daxpy");
  const std::vector<ExperimentId> ids = {0};
  EXPECT_THROW(run_campaign_checkpointed(*p.program, p.golden, ids, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftb::campaign
