// Artifact determinism: the in-process boundary builders (uniform and
// adaptive inference, equivalence pilots) must serialize byte-identical
// boundaries whatever the thread count.  Worker threads consume experiment
// results in completion order, so this holds only because every build
// records all injections before it replays the masked experiments
// (campaign::accumulate_records).  Built as its own binary under the
// `determinism` ctest label so CI can re-run it under TSan.
#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "boundary/serialize.h"
#include "campaign/adaptive.h"
#include "campaign/equivalence.h"
#include "campaign/inference.h"
#include "fi/executor.h"
#include "kernels/registry.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

struct Prepared {
  Prepared(const char* name, kernels::Preset preset)
      : program(kernels::make_program(name, preset)),
        golden(fi::run_golden(*program)) {}
  fi::ProgramPtr program;
  fi::GoldenRun golden;
};

/// Builds the boundary on ThreadPool(1), (2) and (4) and expects the three
/// serialized artifacts to be byte-identical.
template <typename Build>
void expect_identical_at_1_2_4_threads(const Prepared& p, Build build) {
  std::string reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    const std::string bytes =
        boundary::serialize(build(pool), p.program->config_key());
    if (threads == 1) {
      reference = bytes;
    } else {
      EXPECT_TRUE(bytes == reference)
          << threads << " threads: artifact differs from 1 thread";
    }
  }
}

TEST(Determinism, InferUniform) {
  // The default filtered `ftb_analyze infer` at the paper's 1% rate.
  const Prepared p("cg", kernels::Preset::kPaper);
  InferenceOptions options;
  options.sample_fraction = 0.01;
  options.seed = 1;
  options.filter = true;
  expect_identical_at_1_2_4_threads(p, [&](util::ThreadPool& pool) {
    return infer_uniform(*p.program, p.golden, options, pool).boundary;
  });
}

TEST(Determinism, InferAdaptive) {
  const Prepared p("cg", kernels::Preset::kDefault);
  AdaptiveOptions options;
  options.seed = 1;
  expect_identical_at_1_2_4_threads(p, [&](util::ThreadPool& pool) {
    return infer_adaptive(*p.program, p.golden, options, pool).boundary;
  });
}

TEST(Determinism, Equivalence) {
  const Prepared p("cg", kernels::Preset::kDefault);
  EquivalenceInferenceOptions options;
  options.seed = 1;
  expect_identical_at_1_2_4_threads(p, [&](util::ThreadPool& pool) {
    return infer_with_equivalence(*p.program, p.golden, options, pool)
        .boundary;
  });
}

}  // namespace
}  // namespace ftb::campaign
