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
//
// A journal on disk takes one of two forms (little-endian u64 words):
//
//   compacted (v3, what save() writes and every finished run leaves):
//     | magic "FTB-CLOG" | version 3 | config key | record count |
//     | records ... | crc32 of everything before it |
//
//   in-progress (what run_campaign_checkpointed keeps while it runs):
//     | magic "FTB-CLOG" | version kInProgress|3 | config key |
//     | crc32 of that header |
//     | len u32 | crc32 u32 | records ... |   (one frame per flush)
//
// A record is seven words in both: id, outcome, crash reason, injected
// error, output error, crash site, flags (bit 0 = detector fired).  The
// in-progress frames are util::scan_frames frames (util/durable_file.h),
// the framing the job ledger uses too: each flush appends one frame and
// fsyncs, so a flush costs O(new records), and a crash mid-append leaves a
// torn tail that load() drops, keeping every frame before it.  The final
// flush of a run rewrites the journal in its compacted form, sorted and
// deduped.  load() and deserialize() accept v2, v3 and in-progress
// journals; an in-progress journal yields its records in append order,
// exactly what a v3 snapshot of the same unfinished run would hold.
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
#include "util/durable_file.h"
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

  /// Binary (de)serialisation of the compacted form.  It frames the
  /// payload with a magic number, a version word and a trailing CRC-32 of
  /// everything before it, so torn writes and bit rot are detected instead
  /// of silently yielding a short or garbled log.  deserialize()/load() also
  /// read the in-progress form (see the top of this file).  On failure they
  /// return nullopt and, when `error` is non-null, store a one-line
  /// diagnosis there (bad magic / unsupported version / CRC mismatch /
  /// truncated / ...).
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

/// Writes a journal in its in-progress form and compacts it at the end;
/// the durable write path of run_campaign_checkpointed.
class JournalWriter {
 public:
  explicit JournalWriter(std::string path) : path_(std::move(path)) {}

  /// Durably replaces the journal (tmp + fsync + rename) with the
  /// in-progress form of `log`, its records in order, and opens it for
  /// appends.
  bool begin(const CampaignLog& log, std::string* error = nullptr);

  /// Appends `batch` as one frame and fsyncs before returning; a failed
  /// append leaves the file as it was (util::AppendLog).
  bool append(std::span<const ExperimentRecord> batch,
              std::string* error = nullptr);

  /// Closes the append handle and durably replaces the journal with the
  /// compacted form of `log` (CampaignLog::serialize).
  bool compact(const CampaignLog& log, std::string* error = nullptr);

  bool is_open() const noexcept { return file_.valid(); }

  /// Bytes the last begin(), append() or compact() wrote.
  std::uint64_t last_write_bytes() const noexcept { return last_write_bytes_; }

 private:
  std::string path_;
  util::AppendLog file_;
  std::uint64_t last_write_bytes_ = 0;
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
