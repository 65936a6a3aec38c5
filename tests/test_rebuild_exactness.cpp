// Exactness of the two-phase rebuild: boundary_from_log, which keeps one
// value per site, must equal a reference that holds every masked
// experiment's diff vector in memory and applies paper Algorithm 1, the
// Section 3.5 filter and the Section 4.4 exact-site rule literally.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/log.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "fi/fpbits.h"
#include "kernels/registry.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

/// Per-site evidence gathered from the records and the stored diffs.
struct SiteEvidence {
  std::uint64_t tested = 0;
  double min_sdc = std::numeric_limits<double>::infinity();
  std::vector<double> masked_injected;
  std::vector<double> propagated;
};

bool usable(double value) { return std::isfinite(value) && value > 0.0; }

/// The literal definition: unfiltered = max over all masked evidence;
/// filtered = max over masked evidence strictly below the final SDC
/// minimum; exact sites (all 64 bits tested) use the exhaustive rule.
std::vector<double> reference_thresholds(
    const std::vector<SiteEvidence>& sites, bool filter) {
  std::vector<double> thresholds(sites.size(), 0.0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteEvidence& site = sites[i];
    const bool exact = site.tested == ~std::uint64_t{0};
    double best = 0.0;
    for (const double e : site.masked_injected) {
      if (e > best && (!(filter || exact) || e < site.min_sdc)) best = e;
    }
    if (!exact) {
      for (const double v : site.propagated) {
        if (v > best && (!filter || v < site.min_sdc)) best = v;
      }
    }
    thresholds[i] = best;
  }
  return thresholds;
}

class RebuildExactness : public ::testing::TestWithParam<const char*> {};

TEST_P(RebuildExactness, MatchesLiteralAlgorithm1) {
  const fi::ProgramPtr program =
      kernels::make_program(GetParam(), kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const std::uint64_t sites = golden.trace.size();
  util::ThreadPool pool(2);

  // A uniform 10% sample plus every bit of three sites, so the log holds
  // both inferred and exact sites.
  util::Rng rng(5);
  std::vector<ExperimentId> ids = sample_uniform(
      rng, golden.sample_space_size(), golden.sample_space_size() / 10);
  for (const std::uint64_t site : {std::uint64_t{0}, sites / 2, sites - 1}) {
    for (int bit = 0; bit < fi::kBitsPerValue; ++bit) {
      ids.push_back(encode(site, bit));
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  CampaignLog log(program->config_key());
  log.append(run_experiments(*program, golden, ids, pool));

  // Reference: every masked diff vector kept in memory.
  std::vector<SiteEvidence> evidence(sites);
  std::vector<ExperimentId> masked;
  for (const ExperimentRecord& record : log.records()) {
    SiteEvidence& site = evidence[site_of(record.id)];
    site.tested |= std::uint64_t{1} << bit_of(record.id);
    const double injected = record.result.injected_error;
    if (record.result.outcome == fi::Outcome::kSdc && std::isfinite(injected)) {
      site.min_sdc = std::min(site.min_sdc, injected);
    } else if (record.result.outcome == fi::Outcome::kMasked) {
      masked.push_back(record.id);
      if (std::isfinite(injected)) site.masked_injected.push_back(injected);
    }
  }
  std::map<ExperimentId, std::vector<double>> diffs_by_id;
  (void)run_experiments_compare(
      *program, golden, masked, pool,
      [&](const ExperimentRecord& record, std::span<const double> diffs) {
        diffs_by_id[record.id].assign(diffs.begin(), diffs.end());
      });
  ASSERT_EQ(diffs_by_id.size(), masked.size());
  for (const auto& [id, diffs] : diffs_by_id) {
    for (std::uint64_t j = 0; j < sites; ++j) {
      if (usable(diffs[j])) evidence[j].propagated.push_back(diffs[j]);
    }
  }

  const boundary::FaultToleranceBoundary unfiltered =
      boundary_from_log(*program, golden, log, {false}, pool);
  const boundary::FaultToleranceBoundary filtered =
      boundary_from_log(*program, golden, log, {true}, pool);
  const std::vector<double> want_unfiltered =
      reference_thresholds(evidence, false);
  const std::vector<double> want_filtered = reference_thresholds(evidence, true);

  ASSERT_EQ(filtered.sites(), sites);
  std::uint64_t exact_sites = 0;
  for (std::uint64_t i = 0; i < sites; ++i) {
    EXPECT_EQ(unfiltered.threshold(i), want_unfiltered[i]) << "site " << i;
    EXPECT_EQ(filtered.threshold(i), want_filtered[i]) << "site " << i;
    EXPECT_LE(filtered.threshold(i), unfiltered.threshold(i)) << "site " << i;
    const bool exact = evidence[i].tested == ~std::uint64_t{0};
    EXPECT_EQ(filtered.is_exact(i), exact) << "site " << i;
    if (exact) ++exact_sites;
  }
  EXPECT_EQ(exact_sites, 3u);
  // Not a vacuous comparison: the sample produced masked propagation.
  EXPECT_FALSE(masked.empty());
}

INSTANTIATE_TEST_SUITE_P(PaperKernels, RebuildExactness,
                         ::testing::Values("cg", "lu", "fft"));

}  // namespace
}  // namespace ftb::campaign
