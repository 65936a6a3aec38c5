// Ablation beyond the paper: which ingredients of the Section 3.4 adaptive
// sampler matter?  At an equal experiment budget we compare
//
//   uniform       -- one-shot uniform sampling (the Section 4.2 default),
//   bias-only     -- progressive rounds with the 1/S_i bias but WITHOUT
//                    pruning boundary-predicted-masked experiments,
//   prune-only    -- progressive rounds with pruning but uniform rounds,
//   full adaptive -- bias + pruning (the paper's method).
//
// Reported per kernel: recall, precision, and |predicted - golden| SDC gap.
// This isolates the DESIGN.md question of where adaptive's coverage wins
// come from (mostly pruning, with bias helping information-starved sites).
#include "common/bench_common.h"

#include <cmath>
#include <cstdio>

#include "boundary/metrics.h"
#include "boundary/predictor.h"
#include "campaign/adaptive.h"
#include "campaign/inference.h"
#include "campaign/sampler.h"
#include "util/stats.h"

namespace {

using namespace ftb;

struct Variant {
  const char* name;
  bool bias;
  bool prune;
};

struct VariantOutcome {
  double recall = 0.0;
  double precision = 0.0;
  double sdc_gap = 0.0;
  double fraction = 0.0;
};

/// A stripped-down progressive loop with the bias and pruning toggles.
VariantOutcome run_variant(const fi::Program& program,
                           const fi::GoldenRun& golden,
                           const campaign::GroundTruth& truth,
                           util::ThreadPool& pool, bool bias, bool prune,
                           std::uint64_t budget, std::uint64_t seed) {
  const std::uint64_t space = golden.sample_space_size();
  const std::uint64_t round_size = std::max<std::uint64_t>(32, space / 1000);

  boundary::BoundaryAccumulator accumulator(golden.trace.size(), {true});
  std::vector<double> information(golden.trace.size(), 0.0);
  std::vector<campaign::ExperimentId> candidates(space);
  for (std::uint64_t id = 0; id < space; ++id) candidates[id] = id;
  std::vector<campaign::ExperimentId> sampled;
  util::Rng rng(seed);

  while (sampled.size() < budget && !candidates.empty()) {
    const std::uint64_t want =
        std::min<std::uint64_t>(round_size, budget - sampled.size());
    std::vector<campaign::ExperimentId> picked;
    if (bias) {
      picked = campaign::sample_biased(rng, candidates, information, want);
    } else {
      // Uniform over the candidate pool.
      const std::vector<std::uint64_t> positions =
          util::sample_without_replacement(
              rng, candidates.size(),
              std::min<std::uint64_t>(want, candidates.size()));
      picked.reserve(positions.size());
      for (std::uint64_t pos : positions) picked.push_back(candidates[pos]);
    }
    (void)campaign::run_and_accumulate(program, golden, picked, pool,
                                       accumulator, information, 1e-8);
    sampled.insert(sampled.end(), picked.begin(), picked.end());

    const boundary::FaultToleranceBoundary current = accumulator.finalize();
    std::vector<campaign::ExperimentId> next_pool;
    next_pool.reserve(candidates.size());
    std::sort(picked.begin(), picked.end());
    for (const campaign::ExperimentId id : candidates) {
      if (std::binary_search(picked.begin(), picked.end(), id)) continue;
      if (prune) {
        const std::uint64_t site = campaign::site_of(id);
        if (boundary::predict_flip(current, site, golden.trace[site],
                                   campaign::bit_of(id)) ==
            fi::Outcome::kMasked) {
          continue;
        }
      }
      next_pool.push_back(id);
    }
    candidates.swap(next_pool);
  }

  const boundary::FaultToleranceBoundary final_boundary =
      accumulator.finalize();
  const auto metrics = boundary::evaluate_boundary(
      final_boundary, golden.trace, truth.outcomes(), sampled);
  VariantOutcome outcome;
  outcome.recall = metrics.recall();
  outcome.precision = metrics.precision();
  outcome.sdc_gap = std::fabs(
      boundary::predicted_overall_sdc(final_boundary, golden.trace) -
      truth.overall_sdc_ratio());
  outcome.fraction =
      static_cast<double>(sampled.size()) / static_cast<double>(space);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::BenchContext context = bench::BenchContext::from_cli(cli);
  bench::print_banner(
      "Ablation -- adaptive sampling ingredients at equal budget",
      "uniform vs bias-only vs prune-only vs full adaptive, same number of\n"
      "experiments each; isolates where the coverage wins come from.",
      context);

  const Variant variants[] = {
      {"uniform", false, false},
      {"bias-only", true, false},
      {"prune-only", false, true},
      {"bias+prune", true, true},
  };

  util::ThreadPool& pool = util::default_pool();

  for (const std::string& name : context.kernel_names) {
    const bench::PreparedKernel kernel =
        bench::prepare_kernel(name, context.preset);
    const campaign::GroundTruth truth =
        bench::ground_truth_for(kernel, context, pool);
    const std::uint64_t budget = kernel.golden.sample_space_size() / 50;  // 2%

    std::printf("--- %s (budget = %llu experiments, 2%% of space) ---\n",
                name.c_str(), static_cast<unsigned long long>(budget));
    util::Table table({"variant", "recall", "precision", "|pred-golden| SDC"});
    for (const Variant& variant : variants) {
      util::RunningStats recall, precision, gap;
      for (std::size_t trial = 0; trial < context.trials; ++trial) {
        const VariantOutcome outcome = run_variant(
            *kernel.program, kernel.golden, truth, pool, variant.bias,
            variant.prune, budget, context.seed + trial);
        recall.add(outcome.recall);
        precision.add(outcome.precision);
        gap.add(outcome.sdc_gap);
      }
      table.add_row({variant.name, util::percent(recall.mean()),
                     util::percent(precision.mean()),
                     util::percent(gap.mean())});
    }
    bench::print_table(table, context, "");
  }
  return 0;
}
