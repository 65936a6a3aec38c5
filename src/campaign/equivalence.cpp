#include "campaign/equivalence.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "boundary/accumulator.h"
#include "util/rng.h"

namespace ftb::campaign {

EquivalenceClasses::EquivalenceClasses(const fi::GoldenRun& golden,
                                       int magnitude_bits_per_bucket) {
  const fi::PhaseMap phases(golden.phases, golden.trace.size());
  class_of_.resize(golden.trace.size());

  using Key = std::tuple<std::size_t, bool, int>;  // phase, sign, bucket
  std::map<Key, std::size_t> ids;
  for (std::uint64_t site = 0; site < golden.trace.size(); ++site) {
    const double value = golden.trace[site];
    const std::size_t phase = phases.segment_index_of(site);
    const bool negative = std::signbit(value);
    // Exact zeros (and denormal dust) get their own bucket: their bit-flip
    // error spectrum differs fundamentally from normal values.
    const int bucket =
        value == 0.0 ? INT_MIN
                     : std::ilogb(std::fabs(value)) /
                           std::max(1, magnitude_bits_per_bucket);
    const Key key{phase, negative, bucket};
    const auto [it, inserted] = ids.try_emplace(key, members_.size());
    if (inserted) members_.emplace_back();
    class_of_[site] = it->second;
    members_[it->second].push_back(site);
  }
}

double EquivalenceClasses::mean_class_size() const noexcept {
  if (members_.empty()) return 0.0;
  std::size_t total = 0;
  for (const auto& cls : members_) total += cls.size();
  return static_cast<double>(total) / static_cast<double>(members_.size());
}

EquivalenceInferenceResult infer_with_equivalence(
    const fi::Program& program, const fi::GoldenRun& golden,
    const EquivalenceInferenceOptions& options, util::ThreadPool& pool) {
  const EquivalenceClasses classes(golden, options.magnitude_bits_per_bucket);
  util::Rng rng(options.seed);

  EquivalenceInferenceResult result;
  result.classes = classes.class_count();
  result.mean_class_size = classes.mean_class_size();

  const std::uint64_t budget =
      options.budget ? options.budget
                     : std::max<std::uint64_t>(
                           64, golden.sample_space_size() / 100);

  // One pilot per class (random member), tested bit by bit in a shuffled
  // order; classes are visited round-robin, largest first, until the budget
  // runs out or every pilot is exhausted.
  struct PilotState {
    std::uint64_t site = 0;
    std::vector<std::uint64_t> bit_order;
    std::size_t next_bit = 0;
  };
  std::vector<PilotState> pilots(classes.class_count());
  std::vector<std::size_t> class_order(classes.class_count());
  std::iota(class_order.begin(), class_order.end(), std::size_t{0});
  std::sort(class_order.begin(), class_order.end(),
            [&](std::size_t a, std::size_t b) {
              return classes.members(a).size() > classes.members(b).size();
            });
  for (std::size_t cls = 0; cls < classes.class_count(); ++cls) {
    const auto members = classes.members(cls);
    pilots[cls].site = members[rng.next_below(members.size())];
    pilots[cls].bit_order.resize(fi::kBitsPerValue);
    std::iota(pilots[cls].bit_order.begin(), pilots[cls].bit_order.end(),
              std::uint64_t{0});
    util::shuffle(rng, pilots[cls].bit_order);
  }

  std::vector<ExperimentId> schedule;
  schedule.reserve(budget);
  bool progressed = true;
  while (schedule.size() < budget && progressed) {
    progressed = false;
    for (const std::size_t cls : class_order) {
      if (schedule.size() >= budget) break;
      PilotState& pilot = pilots[cls];
      if (pilot.next_bit >= pilot.bit_order.size()) continue;
      schedule.push_back(encode(
          pilot.site, static_cast<int>(pilot.bit_order[pilot.next_bit++])));
      progressed = true;
    }
  }

  // Run the pilot experiments through the standard accumulation pipeline
  // (pilot propagation data spreads thresholds like any masked run).
  boundary::BoundaryAccumulator accumulator(golden.trace.size(),
                                            {options.filter});
  std::vector<double> information(golden.trace.size(), 0.0);
  const std::vector<ExperimentRecord> records = run_and_accumulate(
      program, golden, schedule, pool, accumulator, information, 1e-8);
  result.counts = count_outcomes(records);
  result.sampled_ids = schedule;
  std::sort(result.sampled_ids.begin(), result.sampled_ids.end());

  // Broadcast: members without evidence of their own inherit their class
  // pilot's threshold (Relyzer's "pilot represents the population" step).
  const boundary::FaultToleranceBoundary direct = accumulator.finalize();
  std::vector<double> thresholds(direct.thresholds().begin(),
                                 direct.thresholds().end());
  for (std::size_t cls = 0; cls < classes.class_count(); ++cls) {
    const double pilot_threshold = direct.threshold(pilots[cls].site);
    if (pilot_threshold <= 0.0) continue;
    for (const std::uint64_t site : classes.members(cls)) {
      if (thresholds[site] == 0.0) thresholds[site] = pilot_threshold;
    }
  }
  result.boundary = boundary::FaultToleranceBoundary(std::move(thresholds));
  return result;
}

}  // namespace ftb::campaign
