// Tests for process isolation: the worker pool (fi/sandbox.h) driven by the
// campaign supervisor, the one isolation backend.  The hazard kernels are
// the only programs whose flips genuinely segfault, trap, or spin, so they
// anchor the signal-classification and watchdog assertions.  Signal
// identity is asserted via is_isolation_reason()/isolation_crashes() rather
// than exact signals: under ASan/UBSan a worker's segfault becomes a
// sanitizer report and a nonzero exit (kAbnormalExit), which is still an
// isolation-layer crash.
#include "fi/sandbox.h"

#include <limits>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "campaign/supervisor.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::fi {
namespace {

using campaign::encode;

// quarantine_after = 1 records a lethal flip on its first kill: the
// classification does not depend on K, and the tests stay fast.
campaign::SupervisorOptions isolating_options(std::uint32_t timeout_ms) {
  campaign::SupervisorOptions options;
  options.pool.workers = 2;
  options.pool.heartbeat_timeout_ms = timeout_ms;
  options.quarantine_after = 1;
  return options;
}

TEST(Sandbox, SupportedOnThisPlatform) {
  // The test suite only runs on POSIX platforms (fork is available).
  const ProgramPtr program = kernels::make_program("daxpy", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  WorkerPoolOptions options;
  options.workers = 2;
  WorkerPool pool(*program, golden, options);
  EXPECT_EQ(pool.worker_count(), 2);
  EXPECT_EQ(pool.stats().shrinks, 0u);
}

TEST(Sandbox, MatchesInProcessOnWellBehavedKernel) {
  const ProgramPtr program = kernels::make_program("daxpy", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  util::Rng rng(21);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 60);

  util::ThreadPool pool(2);
  const std::vector<campaign::ExperimentRecord> direct =
      campaign::run_experiments(*program, golden, ids, pool);
  campaign::CampaignSupervisor supervisor(*program, golden,
                                          isolating_options(2000));
  const std::vector<campaign::ExperimentRecord> isolated = supervisor.run(ids);

  ASSERT_EQ(isolated.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(isolated[i].id, direct[i].id);
    EXPECT_EQ(isolated[i].result.outcome, direct[i].result.outcome) << i;
    EXPECT_EQ(isolated[i].result.crash_reason, direct[i].result.crash_reason)
        << i;
    EXPECT_DOUBLE_EQ(isolated[i].result.injected_error,
                     direct[i].result.injected_error)
        << i;
    EXPECT_DOUBLE_EQ(isolated[i].result.output_error,
                     direct[i].result.output_error)
        << i;
  }
  // A well-behaved batch needs no respawn and no intervention.
  const campaign::SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.pool.workers_spawned, 2u);
  EXPECT_EQ(stats.pool.signal_deaths, 0u);
  EXPECT_EQ(stats.pool.hang_kills, 0u);
  EXPECT_EQ(stats.fallback_experiments, 0u);
}

TEST(Sandbox, ClassifiesSignalDeathsAndPreservesNeighbours) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const GoldenRun golden = run_golden(program);

  // Sanity-check the documented control values before weaponising them.
  ASSERT_DOUBLE_EQ(golden.trace[program.offset_site(1)], 5.0);
  ASSERT_DOUBLE_EQ(golden.trace[program.divisor_site(0)], 8.0);

  const std::vector<campaign::ExperimentId> ids = {
      encode(0, 1),                        // benign mantissa flip
      encode(program.offset_site(1), 61),  // ~2^514 offset: SIGSEGV
      encode(0, 2),                        // benign
      encode(program.divisor_site(0), 62), // denormal -> /0: SIGFPE
      encode(0, 3),                        // benign
  };
  campaign::SupervisorOptions options = isolating_options(2000);
  options.pool.workers = 1;  // every death hits the one worker mid-chunk
  campaign::CampaignSupervisor supervisor(program, golden, options);
  const std::vector<campaign::ExperimentRecord> records = supervisor.run(ids);

  ASSERT_EQ(records.size(), ids.size());
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    const ExperimentResult& result = records[i].result;
    EXPECT_EQ(result.outcome, Outcome::kCrash) << i;
    EXPECT_TRUE(is_isolation_reason(result.crash_reason))
        << to_string(result.crash_reason);
    EXPECT_EQ(result.injected_error, std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.output_error, std::numeric_limits<double>::infinity());
    EXPECT_EQ(result.crash_site, 0u);
  }
  // The benign experiments around the lethal ones were completed normally
  // (each lethal flip kills one worker; the chunk resumes in a fresh one).
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_NE(records[i].result.outcome, Outcome::kHang) << i;
    EXPECT_FALSE(is_isolation_reason(records[i].result.crash_reason)) << i;
  }
  const campaign::SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.pool.signal_deaths + stats.pool.abnormal_exits, 2u);
  EXPECT_EQ(stats.pool.respawns, 2u);
  EXPECT_EQ(stats.fallback_experiments, 0u);
}

TEST(Sandbox, WatchdogConvertsSpinIntoHang) {
  const kernels::HazardSpinProgram program{kernels::HazardSpinConfig{}};
  const GoldenRun golden = run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[kernels::HazardSpinProgram::kDecaySite], 0.5);

  const std::vector<campaign::ExperimentId> ids = {
      // Exponent LSB of 0.5 -> exactly 1.0: the residual never shrinks.
      encode(kernels::HazardSpinProgram::kDecaySite, 52),
      encode(0, 0),  // benign; proves the chunk resumes
  };
  campaign::CampaignSupervisor supervisor(program, golden,
                                          isolating_options(250));
  const std::vector<campaign::ExperimentRecord> records = supervisor.run(ids);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].result.outcome, Outcome::kHang);
  EXPECT_EQ(records[0].result.crash_reason, CrashReason::kNone);
  EXPECT_EQ(records[0].result.output_error,
            std::numeric_limits<double>::infinity());
  EXPECT_NE(records[1].result.outcome, Outcome::kHang);
  EXPECT_FALSE(is_isolation_reason(records[1].result.crash_reason));
  EXPECT_EQ(supervisor.stats().pool.hang_kills, 1u);
}

TEST(Sandbox, HazardCampaignYieldsSignalCrashesAndHangs) {
  // A campaign over a hazard kernel, run in the worker pool, completes with
  // nonzero Crash-by-signal and Hang tallies -- and every other experiment
  // still gets a normal outcome.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const GoldenRun golden = run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[program.trip_site(0)], 16.0);

  const std::vector<campaign::ExperimentId> ids = {
      encode(0, 1),                         // benign
      encode(program.offset_site(1), 61),   // SIGSEGV
      encode(1, 2),                         // benign
      encode(program.divisor_site(0), 62),  // SIGFPE
      encode(program.trip_site(0), 61),     // ~9e18 loop trips: hang
      encode(2, 3),                         // benign
  };
  campaign::CampaignSupervisor supervisor(program, golden,
                                          isolating_options(250));
  const std::vector<campaign::ExperimentRecord> records = supervisor.run(ids);

  const campaign::OutcomeCounts counts = campaign::count_outcomes(records);
  EXPECT_EQ(counts.total(), ids.size());
  EXPECT_GE(counts.crash, 2u);
  EXPECT_EQ(counts.hang, 1u);
  const campaign::CrashReasonCounts reasons =
      campaign::count_crash_reasons(records);
  EXPECT_EQ(reasons.isolation_crashes(), 2u);
  EXPECT_FALSE(campaign::describe_crash_reasons(reasons).empty());
  EXPECT_EQ(reasons.of(CrashReason::kQuarantined), 0u);
  EXPECT_EQ(supervisor.stats().pool.hang_kills, 1u);
}

TEST(Sandbox, EmptyBatch) {
  const ProgramPtr program = kernels::make_program("daxpy", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  campaign::CampaignSupervisor supervisor(*program, golden,
                                          isolating_options(2000));
  EXPECT_TRUE(supervisor.run({}).empty());
  EXPECT_EQ(supervisor.stats().chunks_dispatched, 0u);
}

}  // namespace
}  // namespace ftb::fi
