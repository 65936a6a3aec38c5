// Microbenchmarks for the compositional section-graph driver
// (sections/driver.h): what does an incremental recompute actually buy?
//
// Two arms per kernel, same configuration:
//   *FullCompose*       -- every section campaigned from scratch (the cost
//     of the monolithic habit: any change re-runs the whole plan);
//   *OneDirtyRecompute* -- a previous composed artifact is supplied and one
//     section's budget is touched, so fingerprint diffing reuses every
//     clean section's stored evidence and re-runs only the dirty one.
//
// Both arms journal into a fresh directory each iteration (journals resume
// otherwise, and a resumed campaign would measure file replay, not the
// recompute).  The per-iteration experiment counts are exported as
// counters; BENCH_compose.json records a representative run's speedups.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "fi/executor.h"
#include "kernels/registry.h"
#include "sections/compose.h"
#include "sections/driver.h"
#include "sections/section.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;
namespace fs = std::filesystem;

struct ComposeFixture {
  explicit ComposeFixture(const std::string& name)
      : kernel(name),
        program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)),
        pool(2) {
    const sections::SectionPlan plan =
        sections::carve_sections(program->config_key(), golden, carve());
    victim = plan.sections.back().name;

    // The previous artifact the incremental arm diffs against: one full
    // compose at the base budgets, kept for the fixture's lifetime.
    sections::SectionCampaignOptions options = base_options();
    options.store_dir = scratch_dir("seed");
    previous = run_section_campaigns(*program, golden, nullptr, options)
                   .artifact;
  }

  static sections::CarveOptions carve() {
    sections::CarveOptions options;
    options.batch_per_section = 64;
    return options;
  }

  sections::SectionCampaignOptions base_options() const {
    sections::SectionCampaignOptions options;
    options.stem = kernel;
    options.kernel = kernel;
    options.preset = "tiny";
    options.carve = carve();
    options.checkpoint.flush_every = 256;
    options.checkpoint.pool = const_cast<util::ThreadPool*>(&pool);
    return options;
  }

  /// Fresh per-iteration journal directory; resumable journals would turn
  /// the second iteration into a no-op.
  std::string scratch_dir(const std::string& tag) {
    const fs::path dir = fs::temp_directory_path() / "ftb_micro_compose" /
                         (kernel + "_" + tag + "_" + std::to_string(next++));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
  }

  std::string kernel;
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  util::ThreadPool pool;
  std::string victim;
  sections::ComposedArtifact previous;
  std::uint64_t next = 0;
};

ComposeFixture& fixture_for(const std::string& name) {
  static ComposeFixture cg("cg");
  static ComposeFixture lu("lu");
  static ComposeFixture fft("fft");
  if (name == "lu") return lu;
  if (name == "fft") return fft;
  return cg;
}

void run_full_compose(benchmark::State& state, const std::string& kernel) {
  ComposeFixture& f = fixture_for(kernel);
  std::uint64_t executed = 0;
  for (auto _ : state) {
    sections::SectionCampaignOptions options = f.base_options();
    options.store_dir = f.scratch_dir("full");
    const sections::SectionCampaignResult result =
        run_section_campaigns(*f.program, f.golden, nullptr, options);
    executed += result.executed;
    benchmark::DoNotOptimize(result.artifact.sections.size());
  }
  state.counters["experiments"] = benchmark::Counter(
      static_cast<double>(executed), benchmark::Counter::kAvgIterations);
}

void run_one_dirty(benchmark::State& state, const std::string& kernel) {
  ComposeFixture& f = fixture_for(kernel);
  std::uint64_t executed = 0;
  for (auto _ : state) {
    sections::SectionCampaignOptions options = f.base_options();
    options.store_dir = f.scratch_dir("dirty");
    // Touch one section's budget: its fingerprint changes, every other
    // section splices from the previous artifact.
    options.carve.batch_overrides = f.victim + "=96";
    const sections::SectionCampaignResult result =
        run_section_campaigns(*f.program, f.golden, &f.previous, options);
    executed += result.executed;
    benchmark::DoNotOptimize(result.dirty.size());
  }
  state.counters["experiments"] = benchmark::Counter(
      static_cast<double>(executed), benchmark::Counter::kAvgIterations);
}

void BM_CgFullCompose(benchmark::State& state) {
  run_full_compose(state, "cg");
}
BENCHMARK(BM_CgFullCompose)->Unit(benchmark::kMillisecond);

void BM_CgOneDirtyRecompute(benchmark::State& state) {
  run_one_dirty(state, "cg");
}
BENCHMARK(BM_CgOneDirtyRecompute)->Unit(benchmark::kMillisecond);

void BM_LuFullCompose(benchmark::State& state) {
  run_full_compose(state, "lu");
}
BENCHMARK(BM_LuFullCompose)->Unit(benchmark::kMillisecond);

void BM_LuOneDirtyRecompute(benchmark::State& state) {
  run_one_dirty(state, "lu");
}
BENCHMARK(BM_LuOneDirtyRecompute)->Unit(benchmark::kMillisecond);

void BM_FftFullCompose(benchmark::State& state) {
  run_full_compose(state, "fft");
}
BENCHMARK(BM_FftFullCompose)->Unit(benchmark::kMillisecond);

void BM_FftOneDirtyRecompute(benchmark::State& state) {
  run_one_dirty(state, "fft");
}
BENCHMARK(BM_FftOneDirtyRecompute)->Unit(benchmark::kMillisecond);

}  // namespace
