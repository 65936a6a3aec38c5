#include "campaign/latency.h"

#include <vector>

#include "fi/fpbits.h"

namespace ftb::campaign {

void accumulate_latency(LatencyReport& report, const fi::GoldenRun& golden,
                        const ExperimentRecord& record,
                        std::span<const double> diffs,
                        double significance_rel_error) {
  const std::uint64_t site = site_of(record.id);
  switch (record.result.outcome) {
    case fi::Outcome::kCrash: {
      ++report.crashes;
      // Only a non-finite trap pins a trap site.  Control-flow divergence
      // and isolated signal deaths (fi::isolation_result) report
      // crash_site = 0; subtracting the injection site from that would
      // underflow to a huge uint64.  Skip and count them instead.
      if (record.result.crash_reason == fi::CrashReason::kNonFinite &&
          record.result.crash_site >= site) {
        report.crash_latency.add(
            static_cast<double>(record.result.crash_site - site));
      } else {
        ++report.crashes_without_trap_site;
      }
      break;
    }
    case fi::Outcome::kSdc: {
      ++report.sdcs;
      // Collect the significant touches in execution order.
      std::vector<std::uint64_t> touched;
      for (std::uint64_t j = site; j < diffs.size(); ++j) {
        if (diffs[j] <= 0.0) continue;
        const double rel = fi::relative_error(golden.trace[j] + diffs[j],
                                              golden.trace[j]);
        if (rel > significance_rel_error) touched.push_back(j);
      }
      if (touched.empty()) break;
      const std::size_t index90 = (touched.size() * 9) / 10;
      const std::uint64_t site90 =
          touched[index90 < touched.size() ? index90 : touched.size() - 1];
      report.sdc_spread90.add(static_cast<double>(site90 - site));
      const std::uint64_t remaining = diffs.size() - site;
      report.sdc_touched_fraction.add(static_cast<double>(touched.size()) /
                                      static_cast<double>(remaining));
      break;
    }
    case fi::Outcome::kMasked:
      break;
    case fi::Outcome::kDetected:
      // Caught at the output check, after the run completed; latency is the
      // whole remaining trace by construction, so there is nothing to add.
      break;
    case fi::Outcome::kHang:
      // Process-isolation outcome; no trap site or propagation data exists.
      break;
  }
}

LatencyReport measure_latency(const fi::Program& program,
                              const fi::GoldenRun& golden,
                              std::span<const ExperimentId> ids,
                              util::ThreadPool& pool,
                              double significance_rel_error) {
  LatencyReport report;
  report.experiments = ids.size();

  const auto consume = [&](const ExperimentRecord& record,
                           std::span<const double> diffs) {
    accumulate_latency(report, golden, record, diffs, significance_rel_error);
  };

  (void)run_experiments_compare(program, golden, ids, pool, consume);
  return report;
}

}  // namespace ftb::campaign
