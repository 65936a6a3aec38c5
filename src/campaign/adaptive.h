// Progressive adaptive sampling (paper Section 3.4).  Rounds of 0.1% of the
// sample space are drawn -- uniformly at first, then biased towards sites
// with little information (p_i proportional to 1 / S_i).  After every round
// the boundary is rebuilt and used to "filter out many masked samples and
// shrink the potential sample space": experiments the current boundary
// already predicts masked are dropped from the candidate pool.  Sampling
// stops when a round finds (almost) no new masked cases -- the paper uses
// "95% of the new samples are SDC" -- or the pool runs dry.
#pragma once

#include <cstdint>
#include <vector>

#include "boundary/boundary.h"
#include "campaign/campaign.h"
#include "campaign/inference.h"
#include "campaign/supervisor.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

struct AdaptiveOptions {
  double round_fraction = 0.001;      // 0.1% of the space per round
  double stop_sdc_fraction = 0.95;    // stop when masked share <= 1 - this
  std::uint64_t min_round_samples = 32;
  std::size_t max_rounds = 10000;     // hard safety bound only
  std::uint64_t seed = 1;
  bool filter = true;                 // Section 3.5 filter stays on here
  double significance_rel_error = 1e-8;
  /// Route each round's experiments through a persistent CampaignSupervisor
  /// (campaign/supervisor.h) so hazard programs cannot take down the
  /// sampler; see run_and_accumulate_supervised for the evidence rules.
  bool use_supervisor = false;
  SupervisorOptions supervisor;

  /// Optional telemetry sink (telemetry/events.h): adaptive.round spans
  /// (with outcome counts and pool shrinkage args), the campaign.* batch
  /// metrics, and -- when use_supervisor is set and supervisor.telemetry is
  /// unset -- the supervisor/pool instrumentation too.  Never owned.
  telemetry::Telemetry* telemetry = nullptr;
};

struct AdaptiveRound {
  std::uint64_t candidates_before = 0;  // pool size when the round started
  OutcomeCounts counts;                 // outcomes of this round's samples
};

struct AdaptiveResult {
  boundary::FaultToleranceBoundary boundary;
  std::vector<ExperimentId> sampled_ids;  // every experiment actually run
  std::vector<ExperimentRecord> records;  // in run order
  std::vector<AdaptiveRound> rounds;
  std::vector<double> information;        // final S_i per site
  std::uint64_t space = 0;
  SupervisorStats supervisor_stats;       // populated when use_supervisor
  std::uint64_t nonfinite_skipped = 0;    // NaN/Inf propagation values dropped

  double sample_fraction() const noexcept {
    return space ? static_cast<double>(sampled_ids.size()) /
                       static_cast<double>(space)
                 : 0.0;
  }
};

/// Section 3.4 stop rule: stop once masked samples are <= (1 - stop_sdc
/// fraction) of the round's *silent* outcomes (masked + SDC).  The paper's
/// "95% of the new samples are SDC" speaks about the masked/SDC split only;
/// crashes, hangs, and quarantined experiments are detectable outcomes that
/// say nothing about how much masked space is left, so they are excluded
/// from the denominator -- a crash-heavy round must not end sampling while
/// the masked share among silent outcomes is still high.  A round with no
/// silent outcomes at all never stops the loop.
bool adaptive_should_stop(const OutcomeCounts& counts,
                          double stop_sdc_fraction) noexcept;

AdaptiveResult infer_adaptive(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              const AdaptiveOptions& options,
                              util::ThreadPool& pool);

}  // namespace ftb::campaign
