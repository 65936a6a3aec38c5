#include "campaign/adaptive.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "boundary/accumulator.h"
#include "boundary/predictor.h"
#include "campaign/sampler.h"
#include "telemetry/events.h"
#include "util/rng.h"

namespace ftb::campaign {

bool adaptive_should_stop(const OutcomeCounts& counts,
                          double stop_sdc_fraction) noexcept {
  const std::uint64_t silent = counts.masked + counts.sdc;
  if (silent == 0) return false;  // no silent evidence -> keep sampling
  const double masked_share =
      static_cast<double>(counts.masked) / static_cast<double>(silent);
  return masked_share <= 1.0 - stop_sdc_fraction;
}

AdaptiveResult infer_adaptive(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const AdaptiveOptions& options,
                              util::ThreadPool& pool) {
  const std::uint64_t space = golden.sample_space_size();
  const std::uint64_t round_size = std::max<std::uint64_t>(
      options.min_round_samples,
      static_cast<std::uint64_t>(
          std::llround(options.round_fraction * static_cast<double>(space))));

  AdaptiveResult result;
  result.space = space;
  result.information.assign(golden.trace.size(), 0.0);

  boundary::BoundaryAccumulator accumulator(golden.trace.size(),
                                            {options.filter});

  // The candidate pool: everything not yet tested and not yet predicted
  // masked by the evolving boundary.
  std::vector<ExperimentId> candidates(space);
  for (std::uint64_t id = 0; id < space; ++id) candidates[id] = id;

  util::Rng rng(options.seed);

  // The supervisor (and its forked workers) persists across rounds, so the
  // quarantine ledger keeps protecting later rounds from lethal flips
  // rediscovered by the bias.
  std::optional<CampaignSupervisor> supervisor;
  if (options.use_supervisor) {
    SupervisorOptions supervisor_options = options.supervisor;
    if (supervisor_options.telemetry == nullptr) {
      supervisor_options.telemetry = options.telemetry;
    }
    supervisor.emplace(program, golden, supervisor_options);
  }

  for (std::size_t round = 0; round < options.max_rounds; ++round) {
    if (candidates.empty()) break;

    telemetry::SpanScope round_span(options.telemetry, "adaptive.round",
                                    "campaign");
    round_span.arg("round", static_cast<double>(round));

    AdaptiveRound round_stats;
    round_stats.candidates_before = candidates.size();

    // Round 0 has no information yet, so the bias reduces to uniform.
    const std::vector<ExperimentId> picked = sample_biased(
        rng, candidates, result.information, round_size);

    const std::vector<ExperimentRecord> records =
        supervisor ? run_and_accumulate_supervised(
                         program, golden, picked, pool, *supervisor,
                         accumulator, result.information,
                         options.significance_rel_error, options.telemetry)
                   : run_and_accumulate(program, golden, picked, pool,
                                        accumulator, result.information,
                                        options.significance_rel_error,
                                        options.telemetry);
    round_stats.counts = count_outcomes(records);
    result.rounds.push_back(round_stats);
    result.sampled_ids.insert(result.sampled_ids.end(), picked.begin(),
                              picked.end());
    result.records.insert(result.records.end(), records.begin(),
                          records.end());

    // Rebuild the boundary and shrink the pool: drop tested experiments and
    // everything the boundary now predicts masked.
    const boundary::FaultToleranceBoundary current = accumulator.finalize();
    std::vector<ExperimentId> next_pool;
    next_pool.reserve(candidates.size());
    for (const ExperimentId id : candidates) {
      if (std::binary_search(picked.begin(), picked.end(), id)) {
        continue;  // just tested (sample_biased returns sorted ids)
      }
      const std::uint64_t site = site_of(id);
      const fi::Outcome predicted = boundary::predict_flip(
          current, site, golden.trace[site], bit_of(id));
      if (predicted == fi::Outcome::kMasked) continue;  // filtered out
      next_pool.push_back(id);
    }
    candidates.swap(next_pool);

    if (telemetry::active(options.telemetry)) {
      round_span.arg("picked", static_cast<double>(picked.size()));
      round_span.arg("masked", static_cast<double>(round_stats.counts.masked));
      round_span.arg("sdc", static_cast<double>(round_stats.counts.sdc));
      round_span.arg("crash", static_cast<double>(round_stats.counts.crash));
      round_span.arg("hang", static_cast<double>(round_stats.counts.hang));
      round_span.arg("candidates_before",
                     static_cast<double>(round_stats.candidates_before));
      round_span.arg("candidates_after",
                     static_cast<double>(candidates.size()));
      options.telemetry->metrics()
          .gauge("adaptive.candidate_pool")
          .set(static_cast<double>(candidates.size()));
      options.telemetry->metrics().counter("adaptive.rounds").add();
    }

    // Stop once a round yields (almost) no new masked cases among its
    // silent outcomes (see adaptive_should_stop for the Section 3.4
    // alignment: crashes/hangs are excluded from the denominator).
    if (adaptive_should_stop(round_stats.counts, options.stop_sdc_fraction)) {
      break;
    }
  }

  result.boundary = accumulator.finalize();
  std::sort(result.sampled_ids.begin(), result.sampled_ids.end());
  if (supervisor) result.supervisor_stats = supervisor->stats();
  result.nonfinite_skipped = accumulator.nonfinite_skipped();
  publish_accumulator_metrics(options.telemetry, accumulator);
  return result;
}

}  // namespace ftb::campaign
