// Microbenchmarks for the telemetry layer (telemetry/{registry,events}.h).
//
// Two questions matter:
//  1. What do the primitives cost in isolation?  Counter::add and
//     LatencyHistogram::record are single relaxed atomics and must stay in
//     the couple-of-nanoseconds range; SpanScope against a null sink must
//     collapse to a pointer test.
//  2. What does instrumentation cost a real campaign?  The acceptance bar
//     is <= 2% end-to-end overhead on the CG kernel with telemetry off
//     (null sink) -- and staying cheap even with the sink enabled, since
//     the hot path (one experiment) is far heavier than a counter bump.
#include <benchmark/benchmark.h>

#include <vector>

#include "campaign/campaign.h"
#include "campaign/inference.h"
#include "campaign/sample_space.h"
#include "fi/executor.h"
#include "kernels/registry.h"
#include "telemetry/events.h"
#include "telemetry/export.h"
#include "util/thread_pool.h"

namespace {

using namespace ftb;

// ---------------------------------------------------------------------------
// Primitive costs
// ---------------------------------------------------------------------------

void BM_CounterAdd(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.add();
  }
  benchmark::DoNotOptimize(counter.value());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::LatencyHistogram& hist = registry.histogram("bench.hist");
  std::uint64_t value = 1;
  for (auto _ : state) {
    hist.record(value);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap lcg
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

void BM_SpanScopeNullSink(benchmark::State& state) {
  // The off-by-default path every instrumented call site pays: must be a
  // pointer test and nothing else.
  for (auto _ : state) {
    telemetry::SpanScope span(nullptr, "bench.span", "bench");
    span.arg("k", 1.0);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanScopeNullSink);

void BM_SpanScopeDisabledSink(benchmark::State& state) {
  // Non-null but disabled sink: same promise as the null sink.
  telemetry::Telemetry sink;
  for (auto _ : state) {
    telemetry::SpanScope span(&sink, "bench.span", "bench");
    span.arg("k", 1.0);
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanScopeDisabledSink);

void BM_SpanScopeEnabledSink(benchmark::State& state) {
  // The paid path: two clock reads, string moves, one mutex push.
  telemetry::Telemetry sink;
  sink.set_enabled(true);
  for (auto _ : state) {
    telemetry::SpanScope span(&sink, "bench.span", "bench");
    span.arg("k", 1.0);
  }
  benchmark::DoNotOptimize(sink.events().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanScopeEnabledSink);

// ---------------------------------------------------------------------------
// End-to-end campaign overhead on CG
// ---------------------------------------------------------------------------

struct CgFixture {
  CgFixture()
      : program(kernels::make_program("cg", kernels::Preset::kTiny)),
        golden(fi::run_golden(*program)) {
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

void run_campaign(telemetry::Telemetry* sink) {
  CgFixture& f = fixture();
  static util::ThreadPool pool(2);
  boundary::BoundaryAccumulator accumulator(f.golden.trace.size(), {true});
  std::vector<double> information(f.golden.trace.size(), 0.0);
  benchmark::DoNotOptimize(campaign::run_and_accumulate(
      *f.program, f.golden, f.ids, pool, accumulator, information, 1e-8,
      sink));
}

void BM_CgCampaignTelemetryOff(benchmark::State& state) {
  // Baseline: the default null sink -- the acceptance comparison point.
  for (auto _ : state) {
    run_campaign(nullptr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(CgFixture::kExperiments));
}
BENCHMARK(BM_CgCampaignTelemetryOff)->Unit(benchmark::kMillisecond);

void BM_CgCampaignTelemetryDisabledSink(benchmark::State& state) {
  // A wired but disabled sink: what a binary that links telemetry but never
  // passes --metrics-out pays.  Must be indistinguishable from Off.
  telemetry::Telemetry sink;
  for (auto _ : state) {
    run_campaign(&sink);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(CgFixture::kExperiments));
}
BENCHMARK(BM_CgCampaignTelemetryDisabledSink)->Unit(benchmark::kMillisecond);

void BM_CgCampaignTelemetryEnabled(benchmark::State& state) {
  // Full instrumentation live: spans, counters, histograms, gauges.
  telemetry::Telemetry sink;
  sink.set_enabled(true);
  for (auto _ : state) {
    run_campaign(&sink);
  }
  benchmark::DoNotOptimize(sink.events().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(CgFixture::kExperiments));
}
BENCHMARK(BM_CgCampaignTelemetryEnabled)->Unit(benchmark::kMillisecond);

}  // namespace
