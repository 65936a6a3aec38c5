// Relyzer-style fault-site equivalence (Hari et al., ASPLOS'12 -- the
// paper's ref [13]), combined with the fault tolerance boundary exactly as
// the paper's Related Work proposes: "our analysis approach does not
// conflict with the previous heuristic approach, and the two approaches can
// be combined to further reduce the number of samples."
//
// Idea: many dynamic instructions are *equivalent* for fault-injection
// purposes -- same program phase, same magnitude regime -- so instead of
// sampling sites independently, pick one *pilot* per equivalence class, run
// its experiments, and spread the resulting threshold evidence to the whole
// class.  Here classes are keyed on
//
//   (phase segment, sign, floor(log2 |value|) bucket)
//
// which is a software analogue of Relyzer's "same control path + similar
// value" heuristic: two stores in the same loop nest holding values of the
// same scale react near-identically to the same bit flip.
//
// The pruned campaign spends its budget on class pilots (round-robin over
// classes, largest class first), then broadcasts each pilot's inferred
// threshold to every member of its class.  bench/ablation_equivalence
// scores the combination against plain uniform sampling at equal budget.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "boundary/boundary.h"
#include "campaign/inference.h"
#include "fi/executor.h"
#include "fi/phase_map.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

/// Partition of dynamic instructions into equivalence classes.
class EquivalenceClasses {
 public:
  /// Builds the (phase, sign, magnitude-bucket) partition.
  /// `magnitude_bits_per_bucket` widens the log2 buckets (1 = one bucket
  /// per power of two, 3 = buckets spanning 8x in magnitude, ...).
  EquivalenceClasses(const fi::GoldenRun& golden,
                     int magnitude_bits_per_bucket = 3);

  std::size_t class_count() const noexcept { return members_.size(); }
  std::size_t class_of(std::uint64_t site) const noexcept {
    return class_of_[site];
  }
  std::span<const std::uint64_t> members(std::size_t cls) const noexcept {
    return members_[cls];
  }

  /// Mean class size; Relyzer's savings are proportional to this.
  double mean_class_size() const noexcept;

 private:
  std::vector<std::size_t> class_of_;              // site -> class id
  std::vector<std::vector<std::uint64_t>> members_;  // class id -> sites
};

struct EquivalenceInferenceOptions {
  std::uint64_t budget = 0;     // total experiments to run (0 -> 1% of space)
  std::uint64_t seed = 1;
  bool filter = true;
  int magnitude_bits_per_bucket = 3;
};

struct EquivalenceInferenceResult {
  boundary::FaultToleranceBoundary boundary;  // pilot evidence broadcast
  std::vector<ExperimentId> sampled_ids;      // pilot experiments run
  OutcomeCounts counts;
  std::size_t classes = 0;
  double mean_class_size = 0.0;
};

/// Pilot-based inference: spend `budget` experiments on per-class pilots
/// (each pilot contributes its injected-error evidence and, when masked,
/// its propagation data), then broadcast each class's pilot threshold to
/// all members that have no direct evidence of their own.
EquivalenceInferenceResult infer_with_equivalence(
    const fi::Program& program, const fi::GoldenRun& golden,
    const EquivalenceInferenceOptions& options, util::ThreadPool& pool);

}  // namespace ftb::campaign
