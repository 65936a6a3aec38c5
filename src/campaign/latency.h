// Detection-latency analysis: when a fault *is* detectable (the Crash
// class), how many dynamic instructions pass between the injection and the
// first non-finite value?  And for silent faults, how quickly does the
// corruption spread?  These distances drive practical decisions the
// SDC literature cares about -- checkpoint intervals and detector
// placement (Hiller et al., the paper's ref [14]) -- and complement the
// boundary, which says nothing about *when* a fault becomes visible.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "campaign/campaign.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

struct LatencyReport {
  /// Crash (trap) latency in dynamic instructions, over sampled crash
  /// experiments: crash_site - injection_site.
  util::RunningStats crash_latency;

  /// Spread-90 latency for SDC experiments: dynamic instructions until 90%
  /// of the sites the corruption will ever touch significantly have been
  /// touched (relative error > significance).
  util::RunningStats sdc_spread90;

  /// Fraction of all touched-site counts per experiment (how much of the
  /// remaining execution a corruption reaches), for SDC experiments.
  util::RunningStats sdc_touched_fraction;

  std::uint64_t experiments = 0;
  std::uint64_t crashes = 0;
  std::uint64_t sdcs = 0;

  /// Crash experiments excluded from crash_latency because they carry no
  /// valid trap site: control-flow divergence and isolated signal deaths
  /// (fi::isolation_result) report crash_site = 0
  /// (no non-finite value ever hit the trace).  Charging those would
  /// compute crash_site - site on unrelated numbers -- in release builds
  /// that underflows to a huge uint64 and wrecks the latency table.
  std::uint64_t crashes_without_trap_site = 0;
};

/// Folds one experiment record (plus its propagation diffs, empty for
/// non-SDC outcomes) into `report`.  Exposed separately from
/// measure_latency so tests can feed synthetic records; only crash records
/// whose crash_reason is kNonFinite with crash_site >= injection site
/// contribute to crash_latency, everything else lands in
/// crashes_without_trap_site.
void accumulate_latency(LatencyReport& report, const fi::GoldenRun& golden,
                        const ExperimentRecord& record,
                        std::span<const double> diffs,
                        double significance_rel_error);

/// Runs `ids` with propagation capture and aggregates the latency report.
/// `significance_rel_error` matches the paper's 1e-8 significance cut.
LatencyReport measure_latency(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              std::span<const ExperimentId> ids,
                              util::ThreadPool& pool,
                              double significance_rel_error = 1e-8);

}  // namespace ftb::campaign
