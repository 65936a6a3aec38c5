// Checkpointed campaign execution.
//
// A campaign over a hazard kernel can be killed at any moment -- by a CI
// timeout, by the machine, or by the user.  This runner makes that
// survivable: it executes experiments in chunks and flushes the accumulated
// CampaignLog journal to disk after each chunk (atomic tmp+rename,
// CRC-framed -- see campaign/log.h), so a re-invocation with the same
// journal path resumes from the last flush instead of starting over.
// Already-logged experiment ids are skipped; the final log, after dedupe,
// is identical to what an uninterrupted run would have produced (experiment
// outcomes are deterministic).  Chunks run either on the thread pool
// (in-process, for well-behaved programs) or through one long-lived
// CampaignSupervisor (the worker pool, with or without snapshots) -- the one
// isolation backend, required for hazard kernels.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "campaign/campaign.h"
#include "campaign/log.h"
#include "campaign/sample_space.h"
#include "campaign/supervisor.h"
#include "fi/program.h"
#include "util/thread_pool.h"

namespace ftb::campaign {

/// Snapshot handed to CheckpointOptions::on_progress after every journal
/// flush.  `chunk` is the batch of records appended by the chunk that just
/// finished (empty for the final dedupe flush); `supervisor` is non-null
/// only on the supervisor path and points at a stats copy valid for the
/// duration of the callback.
struct CheckpointProgress {
  std::uint64_t executed = 0;  ///< experiments run so far this invocation
  std::uint64_t total = 0;     ///< experiments owed this invocation
  std::uint64_t logged = 0;    ///< journal records after this flush
  std::span<const ExperimentRecord> chunk;
  const SupervisorStats* supervisor = nullptr;
};

struct CheckpointOptions {
  /// Journal file path.  Must be non-empty; if the file exists it is loaded
  /// and its experiments are skipped (resume).
  std::string path;
  /// Experiments per chunk; the journal is flushed after every chunk.
  std::size_t flush_every = 512;
  /// Run chunks through one long-lived CampaignSupervisor: a persistent
  /// worker pool with heartbeats, respawn, and a kill ledger
  /// (campaign/supervisor.h), so signal-crashes and hangs are classified
  /// instead of fatal.  Required for hazard kernels.  The supervisor -- and
  /// with it the ledger and the workers -- lives across all chunks of the
  /// invocation; a resumed invocation rebuilds the ledger and converges to
  /// the same journal bytes.
  bool use_supervisor = false;
  SupervisorOptions supervisor;
  /// Thread pool for the in-process path; util::default_pool() when null.
  util::ThreadPool* pool = nullptr;

  /// Optional telemetry sink (telemetry/events.h): checkpoint.chunk and
  /// checkpoint.flush spans plus checkpoint.* counters; forwarded to the
  /// supervisor (and through it the pool) when supervisor.telemetry is
  /// unset.  Never owned; must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;

  /// Invoked after every journal flush (so everything it reports is already
  /// durable on disk).  ftb_served streams these to the submitting client.
  std::function<void(const CheckpointProgress&)> on_progress;

  /// Polled before each chunk; returning true stops the run after the
  /// journal has been flushed, leaving a resumable journal and setting
  /// CheckpointRunResult::stopped.  ftb_served's drain path uses this.
  std::function<bool()> should_stop;
};

struct CheckpointRunResult {
  CampaignLog log;              ///< deduped, includes resumed records
  bool resumed = false;         ///< true if an existing journal was loaded
  std::uint64_t skipped = 0;    ///< experiments satisfied by the journal
  std::uint64_t executed = 0;   ///< experiments actually run this invocation
  std::uint64_t flushes = 0;    ///< journal writes (including the final one)
  bool stopped = false;         ///< should_stop fired; journal is resumable
  SupervisorStats supervisor_stats;  ///< populated when use_supervisor
};

/// Runs (or resumes) the listed experiments with periodic journal flushes.
/// Throws std::invalid_argument if options.path is empty or an existing
/// journal belongs to a different program configuration, and
/// std::runtime_error if the journal exists but is corrupt or a flush
/// cannot be written.
CheckpointRunResult run_campaign_checkpointed(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, const CheckpointOptions& options);

}  // namespace ftb::campaign
