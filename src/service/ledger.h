// Write-ahead job ledger for the ftb_served campaign plane.
//
// Every job the daemon acks durably exists here first: submit appends a
// kSubmitted record and fsyncs BEFORE the CampaignAccepted frame leaves the
// process, so "the server said yes" implies "a restart will still know about
// the job".  State transitions (kRunning, kDone, kFailed) are appended as the
// job progresses; a job whose last record is kSubmitted or kRunning when the
// process dies is *pending* and is re-enqueued on the next startup, where the
// chunk-edge checkpoint journal resumes it exactly like the CLI --resume
// path.
//
// On-disk format (little-endian); the records are util::append_frame
// frames, read back by util::scan_frames (util/durable_file.h), the reader
// in-progress campaign journals use too:
//
//   | magic u64 "FTB-JLDG" | version u64 |
//   | len u32 | crc32(payload) u32 | payload ... |   (repeated)
//
// payload:
//   u64 job id, u64 state,
//   then for kSubmitted: the SubmitCampaignReq fields in wire order
//   (kernel, preset, seed, batch, workers, flush_every, timeout_ms,
//   quarantine_after); for other states: a free-form note string.
//   A recompute submission appends, after those eight fields (batch
//   carrying section_batch): u64 kind (1), string section_batches,
//   u64 force.  Campaign records stop at the eighth field, so ledgers
//   written before recompute jobs existed replay unchanged -- the reader
//   treats "payload exhausted after eight fields" as kind == campaign.
//
// Replay stops at the first torn or corrupt record (the tail a crash can
// leave behind) and reports it; everything before the tear is trusted
// because each record carries its own CRC.  open() compacts: the file is
// rewritten (durably) with only the still-pending jobs, so the ledger stays
// proportional to the backlog, not the daemon's lifetime history.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "util/durable_file.h"

namespace ftb::service {

enum class JobState : std::uint8_t {
  kSubmitted = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
};

const char* to_string(JobState state) noexcept;

/// What a ledgered job runs: a classic uniform campaign or a compositional
/// section-graph recompute (sections/driver.h).
enum class JobKind : std::uint8_t {
  kCampaign = 0,
  kRecompute = 1,
};

const char* to_string(JobKind kind) noexcept;

/// One pending job recovered from the ledger.  `req` is meaningful when
/// kind == kCampaign, `recompute` when kind == kRecompute.
struct LedgerJob {
  std::uint64_t id = 0;
  JobState state = JobState::kSubmitted;
  JobKind kind = JobKind::kCampaign;
  SubmitCampaignReq req;
  SubmitRecomputeReq recompute;
  std::string note;
};

class JobLedger {
 public:
  struct ReplayResult {
    /// Jobs whose last record was kSubmitted or kRunning, in submit order.
    std::vector<LedgerJob> pending;
    /// Jobs that reached kDone/kFailed since the last compaction (their
    /// records are dropped at the next open()); the chaos harness uses
    /// these to audit that every acked job is accounted for.
    std::vector<LedgerJob> terminal_jobs;
    /// One above the highest job id ever seen (1 for a fresh ledger), so
    /// re-acked ids never collide with pre-crash ones.
    std::uint64_t next_job_id = 1;
    std::uint64_t records = 0;        ///< well-formed records read
    std::uint64_t terminal = 0;       ///< jobs that reached kDone/kFailed
    std::uint64_t torn_records = 0;   ///< records rejected at the tail
    std::vector<std::string> diagnostics;
  };

  JobLedger() = default;
  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  /// Replays `path` (missing file == empty ledger), compacts it down to the
  /// pending jobs, and opens it for appending.  Returns false (with a
  /// diagnostic) when the compaction or the append-mode open fails; replay
  /// results are still delivered so the caller can report what was found.
  bool open(const std::string& path, ReplayResult* replay,
            std::string* error = nullptr);

  /// Appends a kSubmitted record and fsyncs.  Must succeed before the
  /// submission is acked to the client.
  bool append_submitted(std::uint64_t job, const SubmitCampaignReq& req,
                        std::string* error = nullptr);

  /// kSubmitted record for a recompute job (trailing kind fields).
  bool append_submitted_recompute(std::uint64_t job,
                                  const SubmitRecomputeReq& req,
                                  std::string* error = nullptr);

  /// Appends a state-transition record (kRunning/kDone/kFailed) and fsyncs.
  bool append_state(std::uint64_t job, JobState state, const std::string& note,
                    std::string* error = nullptr);

  bool valid() const noexcept { return log_.valid(); }
  const std::string& path() const noexcept { return path_; }
  void close() { log_.close(); }

  /// Read-only replay of a ledger file, for tests and external validators
  /// (the chaos harness uses this to audit a killed daemon's store).
  static ReplayResult replay_file(const std::string& path);

 private:
  std::string path_;
  util::AppendLog log_;
};

}  // namespace ftb::service
