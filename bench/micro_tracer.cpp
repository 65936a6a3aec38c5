// Microbenchmarks for the tracer hot path: the per-dynamic-instruction cost
// of each tracer mode, which bounds how fast campaigns can run (every
// experiment replays the whole kernel through Tracer::step).
//
// The BM_Tracer* cases drive step() from a tiny loop the compiler can fold
// it into, so they show the floor.  The BM_KernelStep cases run the paper
// preset CG/LU/FFT kernels, which is what a campaign pays per dynamic
// instruction: an injection that never fires, one that fires mid-trace,
// and the same mid-trace fault with propagation capture (the masked
// replay).  They report the time per dynamic instruction (`per_instr`).
//
//   ./build/bench/micro_tracer --benchmark_filter=KernelStep
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "fi/executor.h"
#include "fi/tracer.h"
#include "kernels/registry.h"

namespace {

using namespace ftb;

constexpr std::size_t kSteps = 4096;

double drive(fi::Tracer& tracer) {
  double accumulator = 1.000001;
  for (std::size_t i = 0; i < kSteps; ++i) {
    accumulator = tracer.step(accumulator * 1.0000003 + 1e-9);
  }
  return accumulator;
}

void BM_TracerCount(benchmark::State& state) {
  for (auto _ : state) {
    fi::Tracer tracer = fi::Tracer::counter();
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerCount);

void BM_TracerRecord(benchmark::State& state) {
  std::vector<double> trace;
  trace.reserve(kSteps);
  for (auto _ : state) {
    trace.clear();
    fi::Tracer tracer = fi::Tracer::recorder(trace);
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerRecord);

void BM_TracerInject(benchmark::State& state) {
  for (auto _ : state) {
    fi::Tracer tracer =
        fi::Tracer::injector(fi::Injection::bit_flip(kSteps / 2, 3));
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerInject);

void BM_TracerCompare(benchmark::State& state) {
  std::vector<double> golden;
  golden.reserve(kSteps);
  {
    fi::Tracer recorder = fi::Tracer::recorder(golden);
    drive(recorder);
  }
  std::vector<double> diffs(golden.size());
  for (auto _ : state) {
    std::fill(diffs.begin(), diffs.end(), 0.0);
    fi::Tracer tracer = fi::Tracer::comparator(
        fi::Injection::bit_flip(kSteps / 2, 3), golden, diffs);
    benchmark::DoNotOptimize(drive(tracer));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSteps);
}
BENCHMARK(BM_TracerCompare);

// End-to-end cost of one fault-injection experiment per kernel.
void BM_ExperimentCg(benchmark::State& state) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  std::uint64_t site = 0;
  for (auto _ : state) {
    site = (site + 97) % golden.trace.size();
    benchmark::DoNotOptimize(fi::run_injected(
        *program, golden, fi::Injection::bit_flip(site, 30)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(golden.trace.size()));
}
BENCHMARK(BM_ExperimentCg);

void BM_ExperimentCgWithCompare(benchmark::State& state) {
  const fi::ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  std::vector<double> diffs(golden.trace.size());
  std::uint64_t site = 0;
  for (auto _ : state) {
    site = (site + 97) % golden.trace.size();
    benchmark::DoNotOptimize(fi::run_injected_compare(
        *program, golden, fi::Injection::bit_flip(site, 30), diffs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(golden.trace.size()));
}
BENCHMARK(BM_ExperimentCgWithCompare);

enum class KernelRun { kNeverFires, kMidTrace, kCompareMidTrace };

void BM_KernelStep(benchmark::State& state, const std::string& kernel,
                   KernelRun run) {
  const fi::ProgramPtr program =
      kernels::make_program(kernel, kernels::Preset::kPaper);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const std::uint64_t sites = golden.trace.size();
  // A low mantissa bit: the run finishes instead of trapping early, so
  // every experiment executes the whole trace.
  const fi::Injection mid = fi::Injection::bit_flip(sites / 2, 20);
  std::vector<double> diffs(sites);
  for (auto _ : state) {
    switch (run) {
      case KernelRun::kNeverFires: {
        fi::Tracer tracer = fi::Tracer::injector(
            fi::Injection::bit_flip(fi::Tracer::kNoCheckpoint, 0));
        benchmark::DoNotOptimize(program->run(tracer));
        break;
      }
      case KernelRun::kMidTrace:
        benchmark::DoNotOptimize(fi::run_injected(*program, golden, mid));
        break;
      case KernelRun::kCompareMidTrace:
        benchmark::DoNotOptimize(
            fi::run_injected_compare(*program, golden, mid, diffs));
        break;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sites));
  // Seconds per dynamic instruction, printed with an SI prefix ("3.9n").
  state.counters["per_instr"] = benchmark::Counter(
      static_cast<double>(sites),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_KernelStep, cg_never_fires, "cg", KernelRun::kNeverFires);
BENCHMARK_CAPTURE(BM_KernelStep, cg_mid_trace, "cg", KernelRun::kMidTrace);
BENCHMARK_CAPTURE(BM_KernelStep, cg_compare_mid_trace, "cg",
                  KernelRun::kCompareMidTrace);
BENCHMARK_CAPTURE(BM_KernelStep, lu_never_fires, "lu", KernelRun::kNeverFires);
BENCHMARK_CAPTURE(BM_KernelStep, lu_mid_trace, "lu", KernelRun::kMidTrace);
BENCHMARK_CAPTURE(BM_KernelStep, lu_compare_mid_trace, "lu",
                  KernelRun::kCompareMidTrace);
BENCHMARK_CAPTURE(BM_KernelStep, fft_never_fires, "fft",
                  KernelRun::kNeverFires);
BENCHMARK_CAPTURE(BM_KernelStep, fft_mid_trace, "fft", KernelRun::kMidTrace);
BENCHMARK_CAPTURE(BM_KernelStep, fft_compare_mid_trace, "fft",
                  KernelRun::kCompareMidTrace);

}  // namespace
