// Campaign logs: persistent records of executed experiments.
//
// Fault-injection experiments are the expensive resource; their outcomes
// are tiny.  A CampaignLog captures every (experiment id, outcome,
// injected error) pair keyed by the program configuration, so that
//
//   * long campaigns survive interruption (append + save, resume later),
//   * logs from independent machines/seeds can be merged,
//   * boundaries can be *rebuilt* from a log under different analysis
//     settings (e.g. filter on/off) by re-running only the masked
//     experiments in compare mode -- a small fraction of the original cost
//     and no re-classification.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "boundary/accumulator.h"
#include "boundary/boundary.h"
#include "campaign/campaign.h"
#include "fi/executor.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

class CampaignLog {
 public:
  CampaignLog() = default;
  explicit CampaignLog(std::string config_key)
      : config_key_(std::move(config_key)) {}

  const std::string& config_key() const noexcept { return config_key_; }
  const std::vector<ExperimentRecord>& records() const noexcept {
    return records_;
  }
  std::size_t size() const noexcept { return records_.size(); }

  /// Appends records; duplicates (same experiment id) are kept -- dedupe()
  /// removes them (outcomes are deterministic, so any copy is as good).
  void append(std::span<const ExperimentRecord> batch);

  /// Removes duplicate experiment ids and sorts by id.
  void dedupe();

  /// Merges another log for the same configuration (throws
  /// std::invalid_argument on key mismatch) and dedupes.
  void merge(const CampaignLog& other);

  /// Experiment ids in the log, sorted (after dedupe()).
  std::vector<ExperimentId> ids() const;

  /// Binary (de)serialisation.  Format v2 frames the payload with a magic
  /// number, a version word and a trailing CRC-32 of everything before it,
  /// so torn writes and bit rot are detected instead of silently yielding a
  /// short or garbled log.  On failure deserialize()/load() return nullopt
  /// and, when `error` is non-null, store a one-line diagnosis there
  /// (bad magic / unsupported version / CRC mismatch / truncated / ...).
  std::string serialize() const;
  static std::optional<CampaignLog> deserialize(const std::string& payload,
                                                std::string* error = nullptr);
  bool save(const std::string& path) const;
  static std::optional<CampaignLog> load(const std::string& path,
                                         std::string* error = nullptr);

 private:
  std::string config_key_;
  std::vector<ExperimentRecord> records_;
};

/// The two-phase boundary rebuild every path shares (paper Algorithm 1 and
/// the Section 3.5 filter): first records the injection of every classic
/// (site, bit) record into `accumulator`, then re-runs the masked ones in
/// compare mode and feeds their propagation to
/// record_masked_propagation -- so the SDC minima are fixed before any
/// propagation value arrives, and the result does not depend on thread
/// count or completion order.  `observe`, when set, also sees each replayed
/// masked experiment (serialised, arbitrary order, like CompareConsumer).
/// Burst and memory-resident records (fi/memfault.h) are skipped: they
/// describe a different fault model than the (site, bit) boundary.
void accumulate_records(const fi::Program& program,
                        const fi::GoldenRun& golden,
                        std::span<const ExperimentRecord> records,
                        boundary::BoundaryAccumulator& accumulator,
                        util::ThreadPool& pool,
                        const CompareConsumer& observe = {});

/// Rebuilds a boundary from a log through accumulate_records: injected-error
/// evidence comes straight from the records; propagation evidence comes
/// from re-running the masked experiments in compare mode.  The program
/// configuration must match the log's key (checked).
boundary::FaultToleranceBoundary boundary_from_log(
    const fi::Program& program, const fi::GoldenRun& golden,
    const CampaignLog& log, const boundary::AccumulatorOptions& options,
    util::ThreadPool& pool);

}  // namespace ftb::campaign
