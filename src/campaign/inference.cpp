#include "campaign/inference.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "boundary/predictor.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "fi/fpbits.h"
#include "telemetry/events.h"
#include "util/rng.h"

namespace ftb::campaign {

void publish_accumulator_metrics(
    telemetry::Telemetry* telemetry,
    const boundary::BoundaryAccumulator& accumulator) {
  if (!telemetry::active(telemetry)) return;
  auto& metrics = telemetry->metrics();
  metrics.gauge("boundary.nonfinite_skipped")
      .set(static_cast<double>(accumulator.nonfinite_skipped()));
  metrics.gauge("boundary.filter_rejected")
      .set(static_cast<double>(accumulator.filter_rejected()));
  metrics.gauge("boundary.prop_evicted")
      .set(static_cast<double>(accumulator.prop_evicted()));
}

namespace {

// Information counts (paper Figure 4 row 2, Section 3.4 bias): how often a
// site received a significant injection or significant propagated
// corruption.  diffs[site] is the injected error itself, so one pass covers
// both contributions.  Every addend is 1.0, so the sums are exact and do not
// depend on the order experiments complete in.
void count_information(const fi::GoldenRun& golden,
                       const ExperimentRecord& record,
                       std::span<const double> diffs,
                       std::vector<double>& site_information,
                       double significance_rel_error) {
  // Burst and memory-resident experiments (mode-tagged ids) describe a
  // different fault model than the (site, bit) boundary -- their "site"
  // field is a word index, not a trace index.
  if (!is_classic(record.id)) return;
  for (std::uint64_t j = site_of(record.id); j < diffs.size(); ++j) {
    if (diffs[j] <= 0.0) continue;
    const double rel =
        fi::relative_error(golden.trace[j] + diffs[j], golden.trace[j]);
    if (rel > significance_rel_error) site_information[j] += 1.0;
  }
}

// The campaign.* batch metrics plus the accumulator gauges, for a batch of
// `experiments` that started at `start_ns`.
void publish_batch_metrics(telemetry::Telemetry* telemetry,
                           std::size_t experiments, std::uint64_t start_ns,
                           const boundary::BoundaryAccumulator& accumulator) {
  if (!telemetry::active(telemetry)) return;
  auto& metrics = telemetry->metrics();
  metrics.counter("campaign.experiments").add(experiments);
  const std::uint64_t elapsed_ns = telemetry->now_ns() - start_ns;
  metrics.histogram("campaign.batch_ns").record(elapsed_ns);
  if (elapsed_ns > 0) {
    metrics.gauge("campaign.experiments_per_s")
        .set(static_cast<double>(experiments) * 1e9 /
             static_cast<double>(elapsed_ns));
  }
  publish_accumulator_metrics(telemetry, accumulator);
}

}  // namespace

std::vector<ExperimentRecord> run_and_accumulate(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    boundary::BoundaryAccumulator& accumulator,
    std::vector<double>& site_information, double significance_rel_error,
    telemetry::Telemetry* telemetry) {
  assert(site_information.size() == golden.trace.size());

  telemetry::SpanScope span(telemetry, "campaign.batch", "campaign");
  span.arg("experiments", static_cast<double>(ids.size()));
  const std::uint64_t batch_start_ns =
      telemetry::active(telemetry) ? telemetry->now_ns() : 0;

  // Classify every experiment, counting information from its diffs; then
  // the two-phase rebuild replays the masked ones with the SDC minima fixed.
  std::vector<ExperimentRecord> records = run_experiments_compare(
      program, golden, ids, pool,
      [&](const ExperimentRecord& record, std::span<const double> diffs) {
        count_information(golden, record, diffs, site_information,
                          significance_rel_error);
      });
  accumulate_records(program, golden, records, accumulator, pool);

  publish_batch_metrics(telemetry, ids.size(), batch_start_ns, accumulator);
  return records;
}

std::vector<ExperimentRecord> run_and_accumulate_supervised(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    CampaignSupervisor& supervisor,
    boundary::BoundaryAccumulator& accumulator,
    std::vector<double>& site_information, double significance_rel_error,
    telemetry::Telemetry* telemetry) {
  assert(site_information.size() == golden.trace.size());

  telemetry::SpanScope span(telemetry, "campaign.batch", "campaign");
  span.arg("experiments", static_cast<double>(ids.size()));
  const std::uint64_t batch_start_ns =
      telemetry::active(telemetry) ? telemetry->now_ns() : 0;

  // Pass 1, isolated: classify every experiment behind the worker pool.
  std::vector<ExperimentRecord> records = supervisor.run(ids);

  // Pass 2, in-process: experiments a worker ran to completion are safe to
  // repeat here (outcomes are deterministic), which is the only way to get
  // their propagation diffs.  Everything that killed or hung a worker --
  // or was quarantined -- must never execute in this process.  Masked ones
  // are repeated by the rebuild's replay (which also counts their
  // information); the other safe ones only for their information.
  std::vector<ExperimentId> safe_unmasked;
  for (const ExperimentRecord& record : records) {
    const bool unsafe =
        record.result.outcome == fi::Outcome::kHang ||
        fi::is_isolation_reason(record.result.crash_reason);
    if (!unsafe) {
      if (record.result.outcome != fi::Outcome::kMasked) {
        safe_unmasked.push_back(record.id);
      }
      continue;
    }
    // A flip that takes down a process is self-evidently significant at
    // its injection site; its downstream propagation is unobservable.
    if (is_classic(record.id)) site_information[site_of(record.id)] += 1.0;
  }
  const auto information = [&](const ExperimentRecord& record,
                               std::span<const double> diffs) {
    count_information(golden, record, diffs, site_information,
                      significance_rel_error);
  };
  (void)run_experiments_compare(program, golden, safe_unmasked, pool,
                                information);
  accumulate_records(program, golden, records, accumulator, pool,
                     information);

  publish_batch_metrics(telemetry, ids.size(), batch_start_ns, accumulator);
  return records;
}

InferenceResult infer_uniform(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const InferenceOptions& options,
                              util::ThreadPool& pool) {
  const std::uint64_t space = golden.sample_space_size();
  const auto k = static_cast<std::uint64_t>(
      std::llround(options.sample_fraction * static_cast<double>(space)));

  util::Rng rng(options.seed);
  InferenceResult result;
  result.sampled_ids = sample_uniform(rng, space, std::max<std::uint64_t>(k, 1));
  result.information.assign(golden.trace.size(), 0.0);

  boundary::BoundaryAccumulator accumulator(golden.trace.size(),
                                            {options.filter});
  {
    telemetry::SpanScope span(options.telemetry, "infer.uniform", "campaign");
    span.arg("experiments", static_cast<double>(result.sampled_ids.size()));
    result.records =
        run_and_accumulate(program, golden, result.sampled_ids, pool,
                           accumulator, result.information,
                           options.significance_rel_error, options.telemetry);
  }
  result.counts = count_outcomes(result.records);
  result.boundary = accumulator.finalize();
  result.nonfinite_skipped = accumulator.nonfinite_skipped();
  publish_accumulator_metrics(options.telemetry, accumulator);
  return result;
}

util::Confusion confusion_on_records(
    const boundary::FaultToleranceBoundary& boundary,
    std::span<const double> golden_trace,
    std::span<const ExperimentRecord> records) {
  util::Confusion confusion;
  for (const ExperimentRecord& record : records) {
    const std::uint64_t site = site_of(record.id);
    const fi::Outcome predicted = boundary::predict_flip(
        boundary, site, golden_trace[site], bit_of(record.id));
    if (predicted == fi::Outcome::kCrash) continue;
    const bool predicted_masked = predicted == fi::Outcome::kMasked;
    const bool actually_masked = record.result.outcome == fi::Outcome::kMasked;
    if (predicted_masked && actually_masked) {
      ++confusion.true_positive;
    } else if (predicted_masked) {
      ++confusion.false_positive;
    } else if (actually_masked) {
      ++confusion.false_negative;
    } else {
      ++confusion.true_negative;
    }
  }
  return confusion;
}

}  // namespace ftb::campaign
