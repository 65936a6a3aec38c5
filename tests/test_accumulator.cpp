#include "boundary/accumulator.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace ftb::boundary {
namespace {

using fi::Outcome;

std::vector<double> diffs_at(std::size_t sites,
                             std::initializer_list<std::pair<std::size_t, double>>
                                 entries) {
  std::vector<double> diffs(sites, 0.0);
  for (const auto& [site, value] : entries) diffs[site] = value;
  return diffs;
}

TEST(Accumulator, Algorithm1TakesPointwiseMax) {
  BoundaryAccumulator accumulator(4);
  accumulator.record_masked_propagation(diffs_at(4, {{1, 0.5}, {2, 2.0}}));
  accumulator.record_masked_propagation(diffs_at(4, {{1, 1.5}, {3, 0.25}}));
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_DOUBLE_EQ(boundary.threshold(0), 0.0);  // never touched
  EXPECT_DOUBLE_EQ(boundary.threshold(1), 1.5);
  EXPECT_DOUBLE_EQ(boundary.threshold(2), 2.0);
  EXPECT_DOUBLE_EQ(boundary.threshold(3), 0.25);
}

TEST(Accumulator, MaskedInjectionIsEvidence) {
  BoundaryAccumulator accumulator(2);
  accumulator.record_injection(0, 5, Outcome::kMasked, 0.75);
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_DOUBLE_EQ(boundary.threshold(0), 0.75);
}

TEST(Accumulator, CrashInjectionIsNeutral) {
  BoundaryAccumulator accumulator(1);
  accumulator.record_injection(0, 62, Outcome::kCrash, 1e300);
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_DOUBLE_EQ(boundary.threshold(0), 0.0);
}

TEST(Accumulator, FilterRejectsValuesAboveSdcMinimum) {
  BoundaryAccumulator unfiltered(2, {/*filter=*/false});
  BoundaryAccumulator filtered(2, {/*filter=*/true});

  for (auto* accumulator : {&unfiltered, &filtered}) {
    // A known SDC case at site 1 with injected error 1.0.
    accumulator->record_injection(1, 7, Outcome::kSdc, 1.0);
    // Masked propagation claims site 1 tolerates 5.0 -- contradicted above.
    accumulator->record_masked_propagation(diffs_at(2, {{1, 5.0}}));
    accumulator->record_masked_propagation(diffs_at(2, {{1, 0.5}}));
  }
  EXPECT_DOUBLE_EQ(unfiltered.finalize().threshold(1), 5.0);  // Algorithm 1
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(1), 0.5);    // Section 3.5
}

TEST(Accumulator, FilterPrunesWhenSdcEvidenceArrivesLater) {
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_masked_propagation(diffs_at(1, {{0, 5.0}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.5}}));
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 5.0);
  // SDC at 1.0 invalidates the 5.0 even though it was accepted earlier.
  // The accumulator keeps one value per site, so the 0.5 below it is gone
  // too: the threshold drops to 0 (conservative).
  filtered.record_injection(0, 3, Outcome::kSdc, 1.0);
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.0);
}

TEST(Accumulator, FilterRejectsEqualToSdcMinimum) {
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_injection(0, 3, Outcome::kSdc, 1.0);
  filtered.record_masked_propagation(diffs_at(1, {{0, 1.0}}));  // == min SDC
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.0);
}

TEST(Accumulator, MaskedInjectionAboveSdcMinIsFilteredToo) {
  // Non-monotonic direct evidence: masked at 2.0 but SDC at 1.0.  The
  // filtered boundary must not exceed the SDC minimum.
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_injection(0, 3, Outcome::kSdc, 1.0);
  filtered.record_injection(0, 9, Outcome::kMasked, 2.0);
  filtered.record_injection(0, 11, Outcome::kMasked, 0.25);
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.25);
}

TEST(Accumulator, LateSdcEvidenceDropsPropagation) {
  // SDC evidence arriving after propagation evidence: the site's scalar is
  // the largest value seen (0.3); an SDC minimum below it invalidates it
  // and the smaller values it stood for, so the threshold falls to 0
  // (conservative -- never larger than the true filtered max) and the drop
  // is counted.
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.1}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.3}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.2}}));
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.3);
  EXPECT_EQ(filtered.prop_evicted(), 0u);
  filtered.record_injection(0, 1, Outcome::kSdc, 0.15);
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.0);
  EXPECT_EQ(filtered.prop_evicted(), 1u);
}

TEST(Accumulator, LateSdcAboveScalarKeepsIt) {
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.3}}));
  filtered.record_injection(0, 1, Outcome::kSdc, 0.5);  // 0.3 stays valid
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.3);
  EXPECT_EQ(filtered.prop_evicted(), 0u);
  filtered.record_injection(0, 2, Outcome::kSdc, 0.3);  // equal: invalid
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.0);
  EXPECT_EQ(filtered.prop_evicted(), 1u);
}

TEST(Accumulator, TestedBitsTracksDistinctBits) {
  BoundaryAccumulator accumulator(1);
  EXPECT_EQ(accumulator.tested_bits(0), 0u);
  accumulator.record_injection(0, 5, Outcome::kMasked, 0.1);
  accumulator.record_injection(0, 5, Outcome::kMasked, 0.1);  // same bit
  accumulator.record_injection(0, 9, Outcome::kSdc, 2.0);
  EXPECT_EQ(accumulator.tested_bits(0), 2u);
}

TEST(Accumulator, ExactSiteUsesExhaustiveRule) {
  BoundaryAccumulator accumulator(1);
  // Test all 64 bits: masked below 1.0, SDC at >= 1.0, plus one
  // non-monotonic masked outlier at 8.0 which the exact rule must ignore.
  for (int bit = 0; bit < 63; ++bit) {
    const double error = 0.01 * (bit + 1);  // 0.01 .. 0.63
    accumulator.record_injection(0, bit, Outcome::kMasked, error);
  }
  accumulator.record_injection(0, 63, Outcome::kSdc, 0.5);
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_TRUE(boundary.is_exact(0));
  // Largest masked error strictly below the SDC minimum 0.5 is 0.49.
  EXPECT_NEAR(boundary.threshold(0), 0.49, 1e-12);
}

TEST(Accumulator, ExactSiteIgnoresPropagationEvidence) {
  BoundaryAccumulator accumulator(1);
  accumulator.record_masked_propagation(diffs_at(1, {{0, 100.0}}));
  for (int bit = 0; bit < 64; ++bit) {
    accumulator.record_injection(0, bit, bit < 32 ? Outcome::kMasked
                                                  : Outcome::kSdc,
                                 bit < 32 ? 0.1 : 1.0);
  }
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_TRUE(boundary.is_exact(0));
  EXPECT_DOUBLE_EQ(boundary.threshold(0), 0.1);  // not 100.0
}

TEST(Accumulator, NonFiniteMaskedInjectionDoesNotPoisonBoundary) {
  // Regression: a masked outcome whose injected error |x' - x| overflowed
  // to +inf (exponent flip on a large value) used to enter the pointwise
  // max and pin the site's threshold at inf -- the boundary then predicted
  // every later fault at that site masked.
  BoundaryAccumulator accumulator(1);
  accumulator.record_injection(0, 5, Outcome::kMasked, 0.75);
  accumulator.record_injection(0, 60, Outcome::kMasked,
                               std::numeric_limits<double>::infinity());
  accumulator.record_injection(0, 61, Outcome::kMasked,
                               std::numeric_limits<double>::quiet_NaN());
  const FaultToleranceBoundary boundary = accumulator.finalize();
  EXPECT_TRUE(std::isfinite(boundary.threshold(0)));
  EXPECT_DOUBLE_EQ(boundary.threshold(0), 0.75);
  EXPECT_EQ(accumulator.nonfinite_skipped(), 2u);
  // The skipped bits still count as tested -- the flip did run.
  EXPECT_EQ(accumulator.tested_bits(0), 3u);
}

TEST(Accumulator, NonFiniteSdcInjectionLeavesSdcMinimumAlone) {
  // A NaN injected error on an SDC outcome carries no usable magnitude:
  // it must not disturb min_sdc_inj (NaN compares false against
  // everything, so the old code silently ignored it -- now it is counted).
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_injection(0, 3, Outcome::kSdc,
                            std::numeric_limits<double>::quiet_NaN());
  filtered.record_injection(0, 4, Outcome::kSdc, 1.0);
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.5}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 2.0}}));  // >= min SDC
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.5);
  EXPECT_EQ(filtered.nonfinite_skipped(), 1u);
}

TEST(Accumulator, CountsFilterRejections) {
  BoundaryAccumulator filtered(1, {/*filter=*/true});
  filtered.record_injection(0, 3, Outcome::kSdc, 1.0);
  filtered.record_masked_propagation(diffs_at(1, {{0, 5.0}}));  // rejected
  EXPECT_EQ(filtered.filter_rejected(), 1u);
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.1}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.3}}));
  filtered.record_masked_propagation(diffs_at(1, {{0, 0.2}}));
  // Injections before propagation: nothing is ever dropped.
  EXPECT_EQ(filtered.filter_rejected(), 1u);
  EXPECT_EQ(filtered.prop_evicted(), 0u);
  EXPECT_DOUBLE_EQ(filtered.finalize().threshold(0), 0.3);
}

TEST(Accumulator, NonPositiveAndNonFiniteDiffsIgnored) {
  BoundaryAccumulator accumulator(3);
  std::vector<double> diffs = {0.0, -1.0,
                               std::numeric_limits<double>::infinity()};
  accumulator.record_masked_propagation(diffs);
  const FaultToleranceBoundary boundary = accumulator.finalize();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(boundary.threshold(i), 0.0) << i;
  }
}

}  // namespace
}  // namespace ftb::boundary
