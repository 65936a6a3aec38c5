#include "campaign/campaign.h"

#include <mutex>

namespace ftb::campaign {

std::vector<ExperimentRecord> run_experiments(const fi::Program& program,
                                              const fi::GoldenRun& golden,
                                              std::span<const ExperimentId> ids,
                                              util::ThreadPool& pool) {
  std::vector<ExperimentRecord> records(ids.size());
  pool.parallel_for(0, ids.size(), [&](std::size_t i) {
    const ExperimentId id = ids[i];
    records[i].id = id;
    records[i].result = fi::run_injected(program, golden, injection_of(id));
  });
  return records;
}

std::vector<ExperimentRecord> run_experiments_compare(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, util::ThreadPool& pool,
    const CompareConsumer& consume) {
  std::vector<ExperimentRecord> records(ids.size());
  std::mutex consume_mutex;

  // One diff buffer per worker invocation block would be ideal; a
  // thread_local buffer gives the same effect without plumbing.
  pool.parallel_for(0, ids.size(), [&](std::size_t i) {
    thread_local std::vector<double> diffs;
    diffs.resize(golden.trace.size());
    const ExperimentId id = ids[i];
    records[i].id = id;
    records[i].result =
        fi::run_injected_compare(program, golden, injection_of(id), diffs);
    if (consume) {
      std::lock_guard lock(consume_mutex);
      consume(records[i], diffs);
    }
  });
  return records;
}

OutcomeCounts count_outcomes(
    std::span<const ExperimentRecord> records) noexcept {
  OutcomeCounts counts;
  for (const ExperimentRecord& record : records) {
    switch (record.result.outcome) {
      case fi::Outcome::kMasked:
        ++counts.masked;
        break;
      case fi::Outcome::kSdc:
        ++counts.sdc;
        break;
      case fi::Outcome::kCrash:
        ++counts.crash;
        break;
      case fi::Outcome::kHang:
        ++counts.hang;
        break;
      case fi::Outcome::kDetected:
        ++counts.detected;
        break;
    }
  }
  return counts;
}

std::uint64_t CrashReasonCounts::isolation_crashes() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kReasons; ++i) {
    if (fi::is_isolation_reason(static_cast<fi::CrashReason>(i))) {
      total += by_reason[i];
    }
  }
  return total;
}

CrashReasonCounts count_crash_reasons(
    std::span<const ExperimentRecord> records) noexcept {
  CrashReasonCounts counts;
  for (const ExperimentRecord& record : records) {
    if (record.result.outcome != fi::Outcome::kCrash) continue;
    const auto index = static_cast<std::size_t>(record.result.crash_reason);
    if (index < CrashReasonCounts::kReasons) ++counts.by_reason[index];
  }
  return counts;
}

std::string describe_crash_reasons(const CrashReasonCounts& counts) {
  std::string out;
  for (std::size_t i = 0; i < CrashReasonCounts::kReasons; ++i) {
    if (counts.by_reason[i] == 0) continue;
    if (!out.empty()) out += " / ";
    out += fi::to_string(static_cast<fi::CrashReason>(i));
    out += ' ';
    out += std::to_string(counts.by_reason[i]);
  }
  return out;
}

}  // namespace ftb::campaign
