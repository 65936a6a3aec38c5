// Microbenchmarks of process isolation on the CG kernel: the persistent
// worker pool behind the campaign supervisor (campaign/supervisor.h), which
// forks once and streams chunks to long-lived workers, warm and cold.
// Amortising the fork across the whole campaign is what makes isolation
// affordable on a healthy (non-hazard) workload.
//
// The snapshot benchmarks below add the second strategy: the same
// persistent pool, but with each worker serving experiments from a copy-on-write
// fork-server (fi/snapshot.h) so an experiment replays only the suffix after
// the nearest checkpoint instead of the whole program.  Those run on
// bench-sized CG/LU/FFT configs where one replay costs milliseconds -- at
// the tiny sizes above, the ~0.2 ms fork round-trip would swamp the prefix
// savings and the comparison would measure fork(), not the strategy.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "campaign/supervisor.h"
#include "fi/executor.h"
#include "fi/sandbox.h"
#include "kernels/cg.h"
#include "kernels/fft.h"
#include "kernels/lu.h"
#include "kernels/registry.h"

namespace {

using namespace ftb;

struct CgFixture {
  CgFixture()
      : program(kernels::make_program("cg", kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)) {
    // A fixed, striped sample over the space: identical work for every
    // arm, spread across the whole trace.
    const std::uint64_t space = golden.sample_space_size();
    for (std::uint64_t i = 0; i < kExperiments; ++i) {
      ids.push_back((i * 9973) % space);
    }
  }
  static constexpr std::uint64_t kExperiments = 256;
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  std::vector<campaign::ExperimentId> ids;
};

CgFixture& fixture() {
  static CgFixture f;
  return f;
}

void BM_CgSupervisorPool(benchmark::State& state) {
  CgFixture& f = fixture();
  campaign::SupervisorOptions options;
  options.pool.workers = static_cast<int>(state.range(0));
  options.chunk_size = 16;
  // The pool (and its one-time fork cost) lives across iterations, exactly
  // as it lives across rounds in a real campaign.
  campaign::CampaignSupervisor supervisor(*f.program, f.golden, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(supervisor.run(f.ids));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.ids.size()));
}
BENCHMARK(BM_CgSupervisorPool)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CgSupervisorColdStart(benchmark::State& state) {
  // Includes pool construction + shutdown per iteration: the worst case for
  // the persistent pool, bounding what a short campaign pays up front.
  CgFixture& f = fixture();
  campaign::SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 16;
  for (auto _ : state) {
    campaign::CampaignSupervisor supervisor(*f.program, f.golden, options);
    benchmark::DoNotOptimize(supervisor.run(f.ids));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(f.ids.size()));
}
BENCHMARK(BM_CgSupervisorColdStart)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Snapshot fork-server benchmarks (fi/snapshot.h via WorkerPoolOptions).
//
// Two sampling shapes per kernel:
//   *Uniform*  -- sites striped over the whole trace.  The classic worker
//     replays the full program for every experiment; the snapshot worker
//     skips the prefix before the nearest checkpoint, which for a uniform
//     site distribution averages half the trace.  Speedup is therefore
//     mathematically capped at 2x no matter the interval (see
//     EXPERIMENTS.md).
//   *LatePhase* -- sites confined to the last quarter of the trace, the
//     shape adaptive boundary refinement produces once it has localised
//     the transition region.  Here the snapshot path skips ~75% of every
//     replay and the speedup clears the 2x cap.
//
// Benchmark argument = checkpoint interval in dynamic instructions;
// 0 = classic pool (no snapshots), the baseline.  Low mantissa bits are
// flipped so experiments stay benign (masked/SDC) and both arms execute
// the same full suffix -- timing measures the strategy, not crash-early
// artifacts.
// ---------------------------------------------------------------------------

struct SnapshotFixture {
  explicit SnapshotFixture(fi::ProgramPtr p)
      : program(std::move(p)), golden(fi::run_golden(*program)) {
    const std::uint64_t sites = golden.trace.size();
    const std::uint64_t late_begin = sites - sites / 4;
    const std::uint64_t tail_begin = sites - sites / 32;
    for (std::uint64_t i = 0; i < kExperiments; ++i) {
      const int bit = static_cast<int>((i * 5) % 16);  // low mantissa only
      uniform.push_back(campaign::encode((i * 99991) % sites, bit));
      late.push_back(
          campaign::encode(late_begin + (i * 99991) % (sites - late_begin),
                           bit));
      tail.push_back(
          campaign::encode(tail_begin + (i * 99991) % (sites - tail_begin),
                           bit));
    }
  }
  static constexpr std::uint64_t kExperiments = 64;
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  std::vector<campaign::ExperimentId> uniform;
  std::vector<campaign::ExperimentId> late;
  /// Sites packed into the last ~3% of the trace: the localised-transition
  /// endgame where checkpoint *placement* (not just existence) decides how
  /// much prefix each fork replays.  The thinned uniform grid leaves this
  /// window one checkpoint at best; density hints fill it.
  std::vector<campaign::ExperimentId> tail;
};

// Bench-sized configs: one golden replay costs a few milliseconds, the
// regime the fork-server targets (a campaign over real NPB-class runs, not
// the unit-test grids).
SnapshotFixture& cg_snapshot_fixture() {
  static SnapshotFixture f([] {
    kernels::CgConfig config;
    config.nx = 24;
    config.ny = 24;
    config.iterations = 200;
    return std::make_unique<kernels::CgProgram>(config);
  }());
  return f;
}

SnapshotFixture& lu_snapshot_fixture() {
  static SnapshotFixture f([] {
    kernels::LuConfig config;
    config.n = 128;
    config.block = 16;
    return std::make_unique<kernels::LuProgram>(config);
  }());
  return f;
}

SnapshotFixture& fft_snapshot_fixture() {
  static SnapshotFixture f([] {
    kernels::FftConfig config;
    config.n1 = 128;
    config.n2 = 128;
    return std::make_unique<kernels::FftProgram>(config);
  }());
  return f;
}

void run_snapshot_campaign(benchmark::State& state, SnapshotFixture& f,
                           const std::vector<campaign::ExperimentId>& ids,
                           bool density_hints = false) {
  campaign::SupervisorOptions options;
  options.pool.workers = 1;  // one worker: per-experiment cost, undiluted
  options.chunk_size = 16;
  const auto interval = static_cast<std::uint64_t>(state.range(0));
  if (interval != 0) {
    options.pool.use_snapshots = true;
    options.pool.snapshot.interval = interval;
    if (density_hints) {
      // Density-aware placement: spend the checkpoint budget at quantiles
      // of the campaign's own site distribution instead of on the uniform
      // grid (fi::plan_checkpoints).  On the late-phase shape the uniform
      // grid drops most of its slots in the dead first three quarters of
      // the trace; the hinted plan packs them where the forks happen.
      for (const campaign::ExperimentId id : ids) {
        options.pool.snapshot.site_hints.push_back(campaign::site_of(id));
      }
    }
  }
  campaign::CampaignSupervisor supervisor(*f.program, f.golden, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(supervisor.run(ids));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ids.size()));
  state.counters["trace"] = static_cast<double>(f.golden.trace.size());
}

void BM_CgSnapshotUniform(benchmark::State& state) {
  run_snapshot_campaign(state, cg_snapshot_fixture(),
                        cg_snapshot_fixture().uniform);
}
BENCHMARK(BM_CgSnapshotUniform)
    ->Arg(0)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_CgSnapshotLatePhase(benchmark::State& state) {
  run_snapshot_campaign(state, cg_snapshot_fixture(),
                        cg_snapshot_fixture().late);
}
BENCHMARK(BM_CgSnapshotLatePhase)
    ->Arg(0)->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_CgSnapshotLatePhaseDensityHints(benchmark::State& state) {
  run_snapshot_campaign(state, cg_snapshot_fixture(),
                        cg_snapshot_fixture().late,
                        /*density_hints=*/true);
}
BENCHMARK(BM_CgSnapshotLatePhaseDensityHints)
    ->Arg(1024)->Arg(4096)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_CgSnapshotTailCluster(benchmark::State& state) {
  run_snapshot_campaign(state, cg_snapshot_fixture(),
                        cg_snapshot_fixture().tail);
}
BENCHMARK(BM_CgSnapshotTailCluster)
    ->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_CgSnapshotTailClusterDensityHints(benchmark::State& state) {
  run_snapshot_campaign(state, cg_snapshot_fixture(),
                        cg_snapshot_fixture().tail,
                        /*density_hints=*/true);
}
BENCHMARK(BM_CgSnapshotTailClusterDensityHints)
    ->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_LuSnapshotUniform(benchmark::State& state) {
  run_snapshot_campaign(state, lu_snapshot_fixture(),
                        lu_snapshot_fixture().uniform);
}
BENCHMARK(BM_LuSnapshotUniform)
    ->Arg(0)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_LuSnapshotLatePhase(benchmark::State& state) {
  run_snapshot_campaign(state, lu_snapshot_fixture(),
                        lu_snapshot_fixture().late);
}
BENCHMARK(BM_LuSnapshotLatePhase)
    ->Arg(0)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_FftSnapshotUniform(benchmark::State& state) {
  run_snapshot_campaign(state, fft_snapshot_fixture(),
                        fft_snapshot_fixture().uniform);
}
BENCHMARK(BM_FftSnapshotUniform)
    ->Arg(0)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_FftSnapshotLatePhase(benchmark::State& state) {
  run_snapshot_campaign(state, fft_snapshot_fixture(),
                        fft_snapshot_fixture().late);
}
BENCHMARK(BM_FftSnapshotLatePhase)
    ->Arg(0)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace
