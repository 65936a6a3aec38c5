#include "boundary/accumulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#include "fi/fpbits.h"

namespace ftb::boundary {

BoundaryAccumulator::BoundaryAccumulator(std::size_t sites,
                                         AccumulatorOptions options)
    : site_count_(sites),
      options_(options),
      states_(sites),
      min_sdc_(sites, kNoSdc),
      prop_(sites, 0.0) {}

void BoundaryAccumulator::record_injection(std::size_t site, int bit,
                                           fi::Outcome outcome,
                                           double injected_error) {
  assert(site < site_count_);
  assert(bit >= 0 && bit < fi::kBitsPerValue);
  SiteState& state = states_[site];
  state.tested_mask |= std::uint64_t{1} << bit;

  switch (outcome) {
    case fi::Outcome::kMasked:
      if (!std::isfinite(injected_error)) {
        // An exponent flip can push |x' - x| to +inf even when the run ends
        // masked.  Folding that into masked_inj_max makes the unfiltered
        // threshold max(prop, inf) = inf -- the site then predicts
        // *every* fault masked.  Skip the magnitude (the bit still counts
        // as tested) and tally it like record_masked_value does.
        ++nonfinite_skipped_;
        break;
      }
      state.masked_inj_max = std::max(state.masked_inj_max, injected_error);
      state.masked_inj.push_back(injected_error);
      break;
    case fi::Outcome::kSdc:
      ++state.sdc;
      if (!std::isfinite(injected_error)) {
        // An infinite (or NaN) injected error that still flips the output
        // carries no usable magnitude: it cannot tighten the SDC minimum (the
        // old code's `inf < inf` was silently false; NaN compares false on
        // everything).  Count it so reports surface the loss.
        ++nonfinite_skipped_;
        break;
      }
      if (injected_error < min_sdc_[site]) {
        min_sdc_[site] = injected_error;
        // SDC evidence after propagation evidence: a scalar no longer
        // strictly below the minimum is invalid, and the smaller values it
        // stood for are gone -- drop to 0, which is conservative.
        if (options_.filter && prop_[site] > 0.0 &&
            prop_[site] >= injected_error) {
          prop_[site] = 0.0;
          ++prop_evicted_;
        }
      }
      break;
    case fi::Outcome::kDetected:
      // A detector-caught corruption is loud like a crash, so it neither
      // supports nor constrains the *silent*-corruption boundary -- but it
      // is the numerator of the per-site coverage metric.
      ++state.detected;
      break;
    case fi::Outcome::kCrash:
    case fi::Outcome::kHang:
      // Crashes and hangs are detectable, not silent; they neither support
      // nor constrain the boundary (the bit still counts as tested).
      break;
  }
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One Algorithm 1 update.  |x' - x| can overflow to +inf even when both
// trace values are finite (1.7e308 - (-1.7e308), say), and a NaN diff
// survives no comparison meaningfully; either would poison the site's
// pointwise max forever.  Skip it, but keep count -- a nonzero tally in the
// report tells the user their masked runs carry overflowing intermediate
// corruption.  Non-positive values carry no evidence.
template <bool kFilter>
inline void accumulate_value(double value, double& prop, double min_sdc,
                             std::uint64_t& nonfinite_skipped,
                             std::uint64_t& filter_rejected) {
  if (!(value > 0.0 && value < kInf)) {
    if (!std::isfinite(value)) ++nonfinite_skipped;
    return;
  }
  if (kFilter && value >= min_sdc) {  // Section 3.5 rejection
    ++filter_rejected;
    return;
  }
  if (value > prop) prop = value;
}

}  // namespace

void BoundaryAccumulator::record_masked_propagation(
    std::span<const double> diffs) {
  assert(diffs.size() == site_count_);
  // A 0 diff is neither evidence nor non-finite, so the walk starts at the
  // first nonzero one -- at or after the injection site, since a replay
  // leaves every earlier diff 0.
  const std::size_t first = static_cast<std::size_t>(
      std::find_if(diffs.begin(), diffs.end(),
                   [](double d) { return d != 0.0; }) -
      diffs.begin());
  double* prop = prop_.data();
  const double* min_sdc = min_sdc_.data();
  if (options_.filter) {
    for (std::size_t j = first; j < diffs.size(); ++j) {
      accumulate_value<true>(diffs[j], prop[j], min_sdc[j],
                             nonfinite_skipped_, filter_rejected_);
    }
  } else {
    for (std::size_t j = first; j < diffs.size(); ++j) {
      accumulate_value<false>(diffs[j], prop[j], kNoSdc, nonfinite_skipped_,
                              filter_rejected_);
    }
  }
}

void BoundaryAccumulator::record_masked_value(std::size_t site, double value) {
  assert(site < site_count_);
  if (options_.filter) {
    accumulate_value<true>(value, prop_[site], min_sdc_[site],
                           nonfinite_skipped_, filter_rejected_);
  } else {
    accumulate_value<false>(value, prop_[site], kNoSdc, nonfinite_skipped_,
                            filter_rejected_);
  }
}

std::uint32_t BoundaryAccumulator::tested_bits(std::size_t site) const noexcept {
  return static_cast<std::uint32_t>(
      std::popcount(states_[site].tested_mask));
}

std::uint64_t BoundaryAccumulator::total_detected() const noexcept {
  std::uint64_t total = 0;
  for (const SiteState& state : states_) total += state.detected;
  return total;
}

std::uint64_t BoundaryAccumulator::total_sdc() const noexcept {
  std::uint64_t total = 0;
  for (const SiteState& state : states_) total += state.sdc;
  return total;
}

std::vector<double> BoundaryAccumulator::coverage_profile() const {
  std::vector<double> profile(site_count_, 0.0);
  for (std::size_t i = 0; i < site_count_; ++i) {
    profile[i] = detected_coverage(i);
  }
  return profile;
}

FaultToleranceBoundary BoundaryAccumulator::finalize() const {
  std::vector<double> thresholds(site_count_, FaultToleranceBoundary::kUnknown);
  std::vector<std::uint8_t> exact(site_count_, 0);

  for (std::size_t i = 0; i < site_count_; ++i) {
    const SiteState& state = states_[i];

    if (state.tested_mask == ~std::uint64_t{0}) {
      // Exact site (Section 4.4): all 64 flips tested directly; use the
      // exhaustive rule -- largest masked injected error strictly below the
      // smallest SDC injected error.
      double best = 0.0;
      for (double e : state.masked_inj) {
        if (e < min_sdc_[i] && e > best) best = e;
      }
      thresholds[i] = best;
      exact[i] = 1;
      continue;
    }

    if (options_.filter) {
      double best = prop_[i];
      for (double e : state.masked_inj) {
        if (e < min_sdc_[i] && e > best) best = e;
      }
      thresholds[i] = best;
    } else {
      thresholds[i] = std::max(prop_[i], state.masked_inj_max);
    }
  }
  return FaultToleranceBoundary(std::move(thresholds), std::move(exact));
}

}  // namespace ftb::boundary
