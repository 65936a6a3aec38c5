// Microbenchmarks for boundary construction and prediction throughput.
#include <benchmark/benchmark.h>

#include <vector>

#include "boundary/accumulator.h"
#include "boundary/exhaustive.h"
#include "boundary/predictor.h"
#include "fi/fpbits.h"
#include "util/rng.h"

namespace {

using namespace ftb;

constexpr std::size_t kSites = 8192;

std::vector<double> random_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> trace(kSites);
  for (double& v : trace) v = rng.next_double(-10.0, 10.0);
  return trace;
}

std::vector<double> random_diffs(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> diffs(kSites, 0.0);
  for (std::size_t i = kSites / 4; i < kSites; ++i) {
    diffs[i] = rng.next_double(0.0, 1e-3);
  }
  return diffs;
}

// SDC evidence at every third site, with minima inside the diff range so
// the filter rejects part of each vector.  Rebuilds record injections
// before propagation, so the benchmarks do too.
void record_sdc_evidence(boundary::BoundaryAccumulator& accumulator) {
  util::Rng rng(13);
  for (std::size_t site = 0; site < kSites; site += 3) {
    accumulator.record_injection(site, static_cast<int>(site % 64),
                                 fi::Outcome::kSdc,
                                 rng.next_double(0.0, 1e-3));
  }
}

void BM_AccumulateMaskedPropagation(benchmark::State& state) {
  const bool filter = state.range(0) != 0;
  // Cycle through distinct seeded vectors: one vector fed every iteration
  // stops updating the running maxima after the first pass.
  constexpr std::size_t kVectors = 16;
  std::vector<std::vector<double>> diffs;
  for (std::size_t i = 0; i < kVectors; ++i) diffs.push_back(random_diffs(i));
  boundary::BoundaryAccumulator accumulator(kSites, {filter});
  record_sdc_evidence(accumulator);
  std::size_t next = 0;
  for (auto _ : state) {
    accumulator.record_masked_propagation(diffs[next]);
    benchmark::ClobberMemory();
    next = (next + 1) % kVectors;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSites);
}
BENCHMARK(BM_AccumulateMaskedPropagation)->Arg(0)->Arg(1);

void BM_FinalizeBoundary(benchmark::State& state) {
  boundary::BoundaryAccumulator accumulator(kSites, {true});
  record_sdc_evidence(accumulator);
  for (int batch = 0; batch < 16; ++batch) {
    accumulator.record_masked_propagation(random_diffs(batch));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(accumulator.finalize());
  }
}
BENCHMARK(BM_FinalizeBoundary);

void BM_PredictSite(benchmark::State& state) {
  const std::vector<double> trace = random_trace(5);
  const boundary::FaultToleranceBoundary boundary(
      std::vector<double>(kSites, 1e-4));
  std::size_t site = 0;
  for (auto _ : state) {
    site = (site + 1) % kSites;
    benchmark::DoNotOptimize(
        boundary::predict_site(boundary, site, trace[site]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_PredictSite);

void BM_PredictedProfile(benchmark::State& state) {
  const std::vector<double> trace = random_trace(7);
  const boundary::FaultToleranceBoundary boundary(
      std::vector<double>(kSites, 1e-4));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        boundary::predicted_sdc_profile(boundary, trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSites * 64);
}
BENCHMARK(BM_PredictedProfile);

void BM_ExhaustiveBoundaryBuild(benchmark::State& state) {
  const std::vector<double> trace = random_trace(9);
  util::Rng rng(11);
  std::vector<fi::Outcome> outcomes(kSites * fi::kBitsPerValue);
  for (fi::Outcome& o : outcomes) {
    const double u = rng.next_double();
    o = u < 0.6 ? fi::Outcome::kMasked
                : (u < 0.95 ? fi::Outcome::kSdc : fi::Outcome::kCrash);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(boundary::exhaustive_boundary(outcomes, trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(outcomes.size()));
}
BENCHMARK(BM_ExhaustiveBoundaryBuild);

}  // namespace
