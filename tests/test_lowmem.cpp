#include "fi/lowmem.h"

#include <vector>

#include <gtest/gtest.h>

#include "boundary/accumulator.h"
#include "campaign/ground_truth.h"
#include "campaign/inference.h"
#include "kernels/registry.h"
#include "util/rng.h"

namespace ftb::fi {
namespace {

struct Prepared {
  explicit Prepared(const char* name)
      : program(kernels::make_program(name, kernels::Preset::kTiny)),
        golden(run_golden(*program)),
        compressed(CompressedGoldenTrace::from(golden)) {}
  ProgramPtr program;
  GoldenRun golden;
  CompressedGoldenTrace compressed;
};

TEST(CompressedGoldenTrace, PreservesMetadata) {
  Prepared p("cg");
  EXPECT_EQ(p.compressed.sites(), p.golden.dynamic_instructions());
  EXPECT_EQ(p.compressed.sample_space_size(), p.golden.sample_space_size());
  EXPECT_EQ(p.compressed.output(), p.golden.output);
  EXPECT_DOUBLE_EQ(p.compressed.tolerance(), p.golden.tolerance);
  EXPECT_GT(p.compressed.compressed_bytes(), 0u);
}

TEST(CompressedGoldenTrace, DecoderReproducesTrace) {
  Prepared p("fft");
  util::GorillaCodec::Decoder cursor = p.compressed.decoder();
  for (double expected : p.golden.trace) {
    ASSERT_TRUE(cursor.has_next());
    EXPECT_EQ(cursor.next(), expected);
  }
  EXPECT_FALSE(cursor.has_next());
}

TEST(CompressedGoldenTrace, ValueAtSpotChecks) {
  Prepared p("stencil2d");
  for (std::uint64_t site : {std::uint64_t{0}, p.compressed.sites() / 2,
                             p.compressed.sites() - 1}) {
    EXPECT_EQ(p.compressed.value_at(site), p.golden.trace[site]);
  }
}

TEST(LowMemExecutor, OutcomesMatchStandardExecutor) {
  Prepared p("cg");
  util::Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    const std::uint64_t site = rng.next_below(p.golden.trace.size());
    const int bit = static_cast<int>(rng.next_below(64));
    const Injection injection = Injection::bit_flip(site, bit);
    const ExperimentResult standard =
        run_injected(*p.program, p.golden, injection);
    const ExperimentResult lowmem =
        run_injected_lowmem(*p.program, p.compressed, injection);
    EXPECT_EQ(standard.outcome, lowmem.outcome) << site << ":" << bit;
    EXPECT_DOUBLE_EQ(standard.injected_error, lowmem.injected_error);
    EXPECT_DOUBLE_EQ(standard.output_error, lowmem.output_error);
  }
}

TEST(LowMemExecutor, StreamedDiffsMatchBufferedDiffs) {
  Prepared p("lu");
  std::vector<double> buffered(p.golden.trace.size());
  const Injection injection =
      Injection::bit_flip(p.golden.trace.size() / 3, 44);

  const ExperimentResult standard =
      run_injected_compare(*p.program, p.golden, injection, buffered);

  std::vector<double> streamed(p.golden.trace.size(), 0.0);
  const ExperimentResult lowmem = run_injected_compare_lowmem(
      *p.program, p.compressed, injection,
      [&](std::uint64_t site, double error) { streamed[site] = error; });

  EXPECT_EQ(standard.outcome, lowmem.outcome);
  for (std::size_t i = 0; i < buffered.size(); ++i) {
    EXPECT_DOUBLE_EQ(buffered[i], streamed[i]) << i;
  }
}

TEST(LowMemExecutor, CrashRunsClassifyIdentically) {
  Prepared p("cg");
  // Force a crash: overwrite a divisor-adjacent value with NaN.
  const Injection injection = Injection::set_value(
      p.golden.trace.size() / 2, std::numeric_limits<double>::quiet_NaN());
  const ExperimentResult standard =
      run_injected(*p.program, p.golden, injection);
  const ExperimentResult lowmem = run_injected_compare_lowmem(
      *p.program, p.compressed, injection, nullptr);
  EXPECT_EQ(standard.outcome, Outcome::kCrash);
  EXPECT_EQ(lowmem.outcome, Outcome::kCrash);
}

TEST(LowMemPipeline, BoundaryMatchesStandardPipeline) {
  // Two-pass low-memory boundary construction must produce the *same*
  // thresholds as the standard buffered pipeline for the same samples.
  Prepared p("stencil2d");
  util::ThreadPool pool(1);

  campaign::InferenceOptions options;
  options.sample_fraction = 0.03;
  options.seed = 11;
  options.filter = true;
  const campaign::InferenceResult standard =
      campaign::infer_uniform(*p.program, p.golden, options, pool);

  // Same two phases as campaign::accumulate_records: every injection
  // first, then the masked replays.
  boundary::BoundaryAccumulator accumulator(p.golden.trace.size(),
                                            {options.filter});
  std::vector<campaign::ExperimentId> masked;
  for (const campaign::ExperimentId id : standard.sampled_ids) {
    const ExperimentResult outcome_pass = run_injected_lowmem(
        *p.program, p.compressed, campaign::injection_of(id));
    accumulator.record_injection(campaign::site_of(id), campaign::bit_of(id),
                                 outcome_pass.outcome,
                                 outcome_pass.injected_error);
    if (outcome_pass.outcome == Outcome::kMasked) masked.push_back(id);
  }
  for (const campaign::ExperimentId id : masked) {
    (void)run_injected_compare_lowmem(
        *p.program, p.compressed, campaign::injection_of(id),
        [&](std::uint64_t site, double error) {
          accumulator.record_masked_value(site, error);
        });
  }
  const boundary::FaultToleranceBoundary lowmem_boundary =
      accumulator.finalize();
  ASSERT_EQ(lowmem_boundary.sites(), standard.boundary.sites());
  for (std::size_t i = 0; i < lowmem_boundary.sites(); ++i) {
    EXPECT_DOUBLE_EQ(lowmem_boundary.threshold(i),
                     standard.boundary.threshold(i))
        << i;
  }
}

}  // namespace
}  // namespace ftb::fi
