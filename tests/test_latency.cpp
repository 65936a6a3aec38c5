#include "campaign/latency.h"

#include <gtest/gtest.h>

#include "campaign/sampler.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "util/rng.h"

namespace ftb::campaign {
namespace {

TEST(CrashSite, RecordedForImmediateNonFiniteInjection) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const std::uint64_t site = 5;
  const fi::ExperimentResult result =
      fi::run_injected(*program, golden,
                       fi::Injection::set_value(
                           site, std::numeric_limits<double>::infinity()));
  ASSERT_EQ(result.outcome, fi::Outcome::kCrash);
  EXPECT_EQ(result.crash_site, site);  // trapped right at the injection
}

TEST(CrashSite, PropagatedCrashTrapsStrictlyLater) {
  // CG divides by dot products: zeroing a value that feeds a divisor
  // produces inf strictly after the injection.
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  bool found_late_crash = false;
  util::Rng rng(17);
  for (int trial = 0; trial < 400 && !found_late_crash; ++trial) {
    const std::uint64_t site = rng.next_below(golden.trace.size());
    const int bit = 52 + static_cast<int>(rng.next_below(11));  // exponent
    const fi::ExperimentResult result = fi::run_injected(
        *program, golden, fi::Injection::bit_flip(site, bit));
    if (result.outcome == fi::Outcome::kCrash &&
        result.crash_site > site) {
      found_late_crash = true;
      EXPECT_LT(result.crash_site, golden.trace.size());
    }
  }
  EXPECT_TRUE(found_late_crash)
      << "expected at least one propagated (non-immediate) crash";
}

TEST(LatencyReport, AggregatesOverSamples) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::ThreadPool pool(2);

  util::Rng rng(3);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 1500);
  const LatencyReport report = measure_latency(*program, golden, ids, pool);

  EXPECT_EQ(report.experiments, ids.size());
  EXPECT_GT(report.sdcs, 0u);
  EXPECT_EQ(report.sdc_spread90.count(), report.sdcs);
  // Spread distances are bounded by the remaining execution.
  EXPECT_LT(report.sdc_spread90.max(),
            static_cast<double>(golden.trace.size()));
  EXPECT_GE(report.sdc_spread90.min(), 0.0);
  // Touched fractions are proper fractions.
  EXPECT_GT(report.sdc_touched_fraction.mean(), 0.0);
  EXPECT_LE(report.sdc_touched_fraction.max(), 1.0);
  // Every crash is either charged to crash_latency (valid trap site) or
  // counted as lacking one -- never dropped, never double-counted.
  EXPECT_EQ(report.crash_latency.count() + report.crashes_without_trap_site,
            report.crashes);
  if (report.crash_latency.count() > 0) {
    EXPECT_GE(report.crash_latency.min(), 0.0);
  }
}

TEST(LatencyReport, CrashWithoutTrapSiteIsCountedNotCharged) {
  // Regression: a Crash record with crash_site = 0 (control-flow
  // divergence, worker-pool signal deaths, quarantined experiments) used to
  // feed crash_site - site into crash_latency guarded only by a debug
  // assert; in release builds the subtraction underflowed to ~2^64 and
  // wrecked the latency statistics.
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);

  LatencyReport report;
  ExperimentRecord record;
  record.id = encode(10, 3);
  record.result.outcome = fi::Outcome::kCrash;
  record.result.crash_reason = fi::CrashReason::kControlFlow;
  record.result.crash_site = 0;
  accumulate_latency(report, golden, record, {}, 1e-8);
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.crash_latency.count(), 0u);
  EXPECT_EQ(report.crashes_without_trap_site, 1u);

  // Isolation deaths (signal kills, and the quarantine records of older
  // journals) have no trap site either, whatever crash_site claims.
  record.result.crash_reason = fi::CrashReason::kQuarantined;
  record.result.crash_site = 0;
  accumulate_latency(report, golden, record, {}, 1e-8);
  EXPECT_EQ(report.crashes_without_trap_site, 2u);

  // A genuine non-finite trap downstream of the injection is still charged.
  record.result.crash_reason = fi::CrashReason::kNonFinite;
  record.result.crash_site = 60;
  accumulate_latency(report, golden, record, {}, 1e-8);
  EXPECT_EQ(report.crashes, 3u);
  EXPECT_EQ(report.crash_latency.count(), 1u);
  EXPECT_DOUBLE_EQ(report.crash_latency.max(), 50.0);
  EXPECT_EQ(report.crashes_without_trap_site, 2u);
}

TEST(LatencyReport, ControlFlowCrashEndToEndSkipsLatency) {
  // End to end: a trip-count flip on the hazard kernel is safe in-process
  // but diverges control flow -- Crash with crash_site = 0.  The report
  // must route it to crashes_without_trap_site instead of crash_latency.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[program.trip_site(0)], 16.0);
  util::ThreadPool pool(2);

  const std::vector<ExperimentId> ids = {encode(program.trip_site(0), 52)};
  const LatencyReport report = measure_latency(program, golden, ids, pool);
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_EQ(report.crash_latency.count(), 0u);
  EXPECT_EQ(report.crashes_without_trap_site, 1u);
}

TEST(LatencyReport, JacobiSpreadsWiderThanDaxpy) {
  // daxpy's elementwise structure propagates each fault to exactly one
  // later site; Jacobi's stencil coupling spreads it across the grid.
  util::ThreadPool pool(2);
  util::Rng rng(9);

  const fi::ProgramPtr daxpy =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun daxpy_golden = fi::run_golden(*daxpy);
  const LatencyReport daxpy_report = measure_latency(
      *daxpy, daxpy_golden,
      sample_uniform(rng, daxpy_golden.sample_space_size(), 400), pool);

  const fi::ProgramPtr jacobi =
      kernels::make_program("jacobi", kernels::Preset::kTiny);
  const fi::GoldenRun jacobi_golden = fi::run_golden(*jacobi);
  const LatencyReport jacobi_report = measure_latency(
      *jacobi, jacobi_golden,
      sample_uniform(rng, jacobi_golden.sample_space_size(), 400), pool);

  EXPECT_GT(jacobi_report.sdc_touched_fraction.mean(),
            daxpy_report.sdc_touched_fraction.mean());
}

}  // namespace
}  // namespace ftb::campaign
