// The end-to-end inference pipeline (paper Section 3.3): sample experiments,
// run them with propagation capture, feed masked propagation data into the
// boundary accumulator (Algorithm 1, optionally with the Section 3.5
// filter), and track the per-site information counts that drive both the
// Figure 4 "potential impact" row and the Section 3.4 adaptive bias.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "boundary/accumulator.h"
#include "boundary/boundary.h"
#include "campaign/campaign.h"
#include "campaign/supervisor.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

struct InferenceOptions {
  double sample_fraction = 0.01;       // the paper's default evaluation rate
  std::uint64_t seed = 1;
  bool filter = false;                 // Section 3.5 filter operation
  double significance_rel_error = 1e-8;  // Figure 4 row 2 significance cut

  /// Optional telemetry sink (telemetry/events.h): campaign.batch spans,
  /// campaign.experiments counter, experiments/s gauge, and the boundary
  /// accumulator health gauges.  Never owned; must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;
};

struct InferenceResult {
  boundary::FaultToleranceBoundary boundary;
  std::vector<ExperimentId> sampled_ids;  // experiments actually run
  OutcomeCounts counts;                   // outcomes of those experiments
  std::vector<double> information;        // S_i per site (impact measure)
  std::vector<ExperimentRecord> records;  // per-experiment outcomes
  std::uint64_t nonfinite_skipped = 0;    // NaN/Inf propagation values dropped
};

/// Uniform Monte-Carlo sampling at options.sample_fraction of the space.
InferenceResult infer_uniform(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const InferenceOptions& options,
                              util::ThreadPool& pool);

/// Lower-level building block shared with the adaptive sampler: runs `ids`
/// in Compare mode to classify them and add to `site_information`
/// (significant injections and propagations, any outcome), then feeds
/// `accumulator` through the two-phase rebuild (campaign/log.h
/// accumulate_records), which re-runs the masked ones.  The accumulator
/// state is therefore independent of thread count.  Returns the experiment
/// records in `ids` order.
std::vector<ExperimentRecord> run_and_accumulate(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    boundary::BoundaryAccumulator& accumulator,
    std::vector<double>& site_information, double significance_rel_error,
    telemetry::Telemetry* telemetry = nullptr);

/// Supervisor-backed variant for hazard programs whose corrupted runs can
/// kill or hang the process: outcomes come from the isolated worker pool
/// first and feed the two-phase rebuild; experiments that provably
/// completed inside a worker (not Hang, not an isolation-reason Crash) are
/// then re-run in-process in Compare mode -- the masked ones by the
/// rebuild's replay -- to collect propagation and information, identical
/// evidence to run_and_accumulate for those ids.  Worker-killing
/// experiments contribute their injection record and one unit of
/// information at the injection site, but are never re-run in this
/// process.  No experiment runs more than twice.
std::vector<ExperimentRecord> run_and_accumulate_supervised(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    CampaignSupervisor& supervisor,
    boundary::BoundaryAccumulator& accumulator,
    std::vector<double>& site_information, double significance_rel_error,
    telemetry::Telemetry* telemetry = nullptr);

/// Publishes the accumulator's health counters (non-finite skips, filter
/// rejections, propagation dropped by late SDC evidence) as boundary.*
/// gauges.  No-op on a null/disabled sink; safe to call repeatedly (gauges
/// are set, not added).
void publish_accumulator_metrics(telemetry::Telemetry* telemetry,
                                 const boundary::BoundaryAccumulator& accumulator);

/// Confusion of boundary predictions against a batch of known-outcome
/// records (used when only a sampled ground truth exists, e.g. Table 4's
/// large input).
util::Confusion confusion_on_records(
    const boundary::FaultToleranceBoundary& boundary,
    std::span<const double> golden_trace,
    std::span<const ExperimentRecord> records);

}  // namespace ftb::campaign
