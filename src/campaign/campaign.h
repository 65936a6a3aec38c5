// Batch experiment execution.  Campaigns are embarrassingly parallel; the
// runner pre-partitions the experiment list over the thread pool and writes
// results at fixed indices, so a campaign's output is identical regardless
// of thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "campaign/sample_space.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

struct ExperimentRecord {
  ExperimentId id = 0;
  fi::ExperimentResult result;
};

/// Runs each listed experiment once (outcome only, no propagation capture)
/// and returns records in the same order as `ids`.
std::vector<ExperimentRecord> run_experiments(const fi::Program& program,
                                              const fi::GoldenRun& golden,
                                              std::span<const ExperimentId> ids,
                                              util::ThreadPool& pool);

/// Runs each listed experiment in Compare mode and hands every result --
/// with its propagation diff vector -- to `consume`.  `consume` is called
/// from worker threads one-at-a-time (internally serialised), in arbitrary
/// order; the diffs span is only valid during the call.  Returns records in
/// `ids` order, like run_experiments.
using CompareConsumer =
    std::function<void(const ExperimentRecord&, std::span<const double> diffs)>;

std::vector<ExperimentRecord> run_experiments_compare(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    const CompareConsumer& consume);

/// Outcome tallies over a record batch.
struct OutcomeCounts {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t crash = 0;
  std::uint64_t hang = 0;
  std::uint64_t detected = 0;

  std::uint64_t total() const noexcept {
    return masked + sdc + crash + hang + detected;
  }
  double sdc_fraction() const noexcept {
    return total() ? static_cast<double>(sdc) / static_cast<double>(total())
                   : 0.0;
  }
  /// Detector coverage over wrong outputs: detected / (detected + sdc).
  double detected_coverage() const noexcept {
    const std::uint64_t wrong = detected + sdc;
    return wrong ? static_cast<double>(detected) / static_cast<double>(wrong)
                 : 0.0;
  }
};

OutcomeCounts count_outcomes(std::span<const ExperimentRecord> records) noexcept;

/// Crash-reason tallies over a record batch (Crash outcomes only; Hang
/// records carry CrashReason::kNone and are not counted here).  Indexed by
/// static_cast<size_t>(fi::CrashReason).
struct CrashReasonCounts {
  static constexpr std::size_t kReasons =
      static_cast<std::size_t>(fi::CrashReason::kQuarantined) + 1;
  std::uint64_t by_reason[kReasons] = {};

  std::uint64_t of(fi::CrashReason reason) const noexcept {
    return by_reason[static_cast<std::size_t>(reason)];
  }
  /// Crashes only the isolation layer can observe (signals, bad exits).
  std::uint64_t isolation_crashes() const noexcept;
};

CrashReasonCounts count_crash_reasons(
    std::span<const ExperimentRecord> records) noexcept;

/// One line per nonzero reason, e.g. "non-finite 12 / SIGSEGV 3"; empty
/// string when there are no crashes.
std::string describe_crash_reasons(const CrashReasonCounts& counts);

}  // namespace ftb::campaign
