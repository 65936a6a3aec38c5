#include "campaign/adaptive.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "boundary/metrics.h"
#include "boundary/predictor.h"
#include "boundary/serialize.h"
#include "campaign/ground_truth.h"
#include "campaign/log.h"
#include "kernels/registry.h"

namespace ftb::campaign {
namespace {

struct Prepared {
  explicit Prepared(const std::string& name)
      : program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(2) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
};

AdaptiveOptions fast_options() {
  AdaptiveOptions options;
  options.round_fraction = 0.005;
  options.min_round_samples = 16;
  options.seed = 5;
  return options;
}

TEST(Adaptive, TerminatesAndStaysWithinSpace) {
  Prepared p("stencil2d");
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  EXPECT_GT(result.rounds.size(), 0u);
  EXPECT_LE(result.sampled_ids.size(), result.space);
  EXPECT_GT(result.sampled_ids.size(), 0u);
  EXPECT_LE(result.sample_fraction(), 1.0);
  EXPECT_EQ(result.records.size(), result.sampled_ids.size());
}

TEST(Adaptive, SupervisedSurvivesHazardKernel) {
  // With use_supervisor, adaptive inference survives a kernel whose flips
  // segfault, trap, or spin -- running this in-process would kill or hang
  // the test binary.  The supervisor persists across rounds, so a lethal
  // site quarantined in an early round stays quarantined later.
  const fi::ProgramPtr program =
      kernels::make_program("hazard", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::ThreadPool pool(2);

  AdaptiveOptions options;
  options.round_fraction = 0.02;
  options.min_round_samples = 32;
  options.seed = 5;
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;
  options.supervisor.quarantine_after = 2;
  options.supervisor.pool.heartbeat_timeout_ms = 300;
  const AdaptiveResult result =
      infer_adaptive(*program, golden, options, pool);

  EXPECT_GT(result.rounds.size(), 0u);
  EXPECT_EQ(result.records.size(), result.sampled_ids.size());
  // Still alive: every sampled experiment got exactly one record, and any
  // lethal flip the sampler found ended up quarantined, not fatal -- and
  // recorded as what killed the workers (a signal or a hang).
  EXPECT_EQ(result.supervisor_stats.quarantined,
            static_cast<std::uint64_t>(std::count_if(
                result.records.begin(), result.records.end(),
                [](const ExperimentRecord& r) {
                  return fi::is_isolation_reason(r.result.crash_reason) ||
                         r.result.outcome == fi::Outcome::kHang;
                })));
  for (const ExperimentRecord& record : result.records) {
    EXPECT_NE(record.result.crash_reason, fi::CrashReason::kQuarantined);
  }
}

TEST(Adaptive, NeverRetestsAnExperiment) {
  Prepared p("daxpy");
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  const std::set<ExperimentId> unique(result.sampled_ids.begin(),
                                      result.sampled_ids.end());
  EXPECT_EQ(unique.size(), result.sampled_ids.size());
}

TEST(Adaptive, CandidatePoolShrinksMonotonically) {
  Prepared p("stencil2d");
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  for (std::size_t r = 1; r < result.rounds.size(); ++r) {
    EXPECT_LT(result.rounds[r].candidates_before,
              result.rounds[r - 1].candidates_before)
        << "round " << r;
  }
}

TEST(Adaptive, DeterministicForSeed) {
  Prepared p("daxpy");
  const AdaptiveResult a =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  const AdaptiveResult b =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  EXPECT_EQ(a.sampled_ids, b.sampled_ids);
  EXPECT_EQ(a.rounds.size(), b.rounds.size());
}

TEST(Adaptive, UsesFarFewerSamplesThanExhaustive) {
  Prepared p("stencil2d");
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  EXPECT_LT(result.sample_fraction(), 0.6);
}

TEST(Adaptive, PredictedSdcTracksGroundTruth) {
  Prepared p("stencil2d");
  const GroundTruth truth =
      GroundTruth::compute(*p.program, p.golden, p.pool, /*use_cache=*/false);
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, fast_options(), p.pool);
  const double predicted =
      boundary::predicted_overall_sdc(result.boundary, p.golden.trace);
  // The boundary assumes unknown = SDC, so predicted >= truth - noise, and
  // after adaptive refinement it should be within a handful of points.
  EXPECT_NEAR(predicted, truth.overall_sdc_ratio(), 0.15);
}

TEST(Adaptive, StopCriterionRespectsMaskedShare) {
  // With stop_sdc_fraction = 0 every round stops immediately after round 1
  // (any masked share <= 1 satisfies the criterion).
  Prepared p("daxpy");
  AdaptiveOptions options = fast_options();
  options.stop_sdc_fraction = 0.0;
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, options, p.pool);
  EXPECT_EQ(result.rounds.size(), 1u);
}

TEST(Adaptive, StopRuleCountsSilentOutcomesOnly) {
  // Section 3.4's "95% of the new samples are SDC" speaks about the
  // masked/SDC split; crashes and hangs are detectable outcomes and must
  // not dilute the denominator.  The old rule counted them, so a
  // crash-heavy round could end sampling while the masked share among
  // silent outcomes was still high.
  OutcomeCounts counts;
  counts.masked = 20;
  counts.sdc = 80;
  counts.crash = 900;  // would have pushed masked share to 0.02 under the
  counts.hang = 10;    // old total()-based denominator -> premature stop
  EXPECT_FALSE(adaptive_should_stop(counts, 0.95));  // 20/100 = 0.2 > 0.05

  OutcomeCounts mostly_sdc;
  mostly_sdc.masked = 5;
  mostly_sdc.sdc = 95;
  EXPECT_TRUE(adaptive_should_stop(mostly_sdc, 0.95));  // 0.05 <= 0.05

  OutcomeCounts detectable_only;
  detectable_only.crash = 50;
  detectable_only.hang = 3;
  // No silent evidence at all: the round says nothing about the masked
  // space, so sampling must continue.
  EXPECT_FALSE(adaptive_should_stop(detectable_only, 0.95));

  OutcomeCounts all_masked;
  all_masked.masked = 10;
  EXPECT_FALSE(adaptive_should_stop(all_masked, 0.95));  // share 1 > 0.05
  EXPECT_TRUE(adaptive_should_stop(all_masked, 0.0));    // 1 <= 1
}

TEST(Adaptive, SnapshotRoundsAreByteIdenticalToClassicSupervisor) {
  // ftb_analyze infer --adaptive --snapshot serves each refinement round
  // from the copy-on-write fork-server inside the pool workers.  Checkpoint
  // placement is a speed knob only: the sampled ids, every record, and the
  // final boundary must be byte-identical to the classic supervisor path.
  Prepared p("daxpy");
  AdaptiveOptions options = fast_options();
  options.use_supervisor = true;
  options.supervisor.pool.workers = 2;

  AdaptiveOptions snapshot_options = options;
  snapshot_options.supervisor.pool.use_snapshots = true;
  snapshot_options.supervisor.pool.snapshot.interval = 64;

  const AdaptiveResult classic =
      infer_adaptive(*p.program, p.golden, options, p.pool);
  const AdaptiveResult snapshot =
      infer_adaptive(*p.program, p.golden, snapshot_options, p.pool);

  EXPECT_EQ(classic.sampled_ids, snapshot.sampled_ids);
  ASSERT_EQ(classic.records.size(), snapshot.records.size());

  // Journal byte-identity: the same records serialize to the same log.
  CampaignLog classic_log(p.program->config_key());
  classic_log.append(classic.records);
  CampaignLog snapshot_log(p.program->config_key());
  snapshot_log.append(snapshot.records);
  EXPECT_EQ(classic_log.serialize(), snapshot_log.serialize());

  // Boundary byte-identity, artifact framing included.
  EXPECT_EQ(
      boundary::serialize(classic.boundary, p.program->config_key()),
      boundary::serialize(snapshot.boundary, p.program->config_key()));
}

TEST(Adaptive, MaxRoundsBounds) {
  Prepared p("stencil2d");
  AdaptiveOptions options = fast_options();
  options.max_rounds = 2;
  options.stop_sdc_fraction = 1.1;  // never satisfied -> rely on max_rounds
  const AdaptiveResult result =
      infer_adaptive(*p.program, p.golden, options, p.pool);
  EXPECT_LE(result.rounds.size(), 2u);
}

}  // namespace
}  // namespace ftb::campaign
