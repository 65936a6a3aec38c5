// Checkpointed campaign execution -- the one journal runner.
//
// A campaign over a hazard kernel can be killed at any moment -- by a CI
// timeout, by the machine, or by the user.  This runner makes that
// survivable: it executes experiments in chunks and flushes the accumulated
// CampaignLog journal to disk after each chunk, so a re-invocation with the
// same journal path resumes from the last flush instead of starting over.
// While it runs the journal is in its in-progress form (campaign/log.h):
// the first flush writes it whole, each later one appends the chunk it
// merged as one CRC frame and fsyncs, so a flush costs O(new records).  The
// final flush compacts it to the v3 form.  Already-logged experiment ids
// are skipped; the final log, after dedupe, is identical to what an
// uninterrupted run would have produced (experiment outcomes are
// deterministic).
//
// run_campaign_checkpointed is the only code that loads, resumes, flushes,
// reports, stops and dedupes a journal.  *Where* a chunk runs is a separate
// question, answered by a ChunkSource: by default the runner's own backend
// -- the thread pool (in-process, for well-behaved programs) or one
// long-lived CampaignSupervisor (the worker pool, with or without
// snapshots; the one isolation backend, required for hazard kernels) --
// takes the chunks in order.  ftb_served's ChunkDispatcher
// (service/dispatch.h) is the other source: it leases chunks to remote
// ftb_workerd daemons and runs the rest on the runner's backend, returning
// finished chunks in whatever order they land.  The journal bytes do not
// depend on the source.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

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
/// on the supervisor path and with a chunk source, and points at a stats
/// copy (remote counts included) valid for the duration of the callback.
struct CheckpointProgress {
  std::uint64_t executed = 0;  ///< experiments run so far this invocation
  std::uint64_t total = 0;     ///< experiments owed this invocation
  std::uint64_t logged = 0;    ///< journal records after this flush
  std::span<const ExperimentRecord> chunk;
  const SupervisorStats* supervisor = nullptr;
};

/// Runs one chunk on the runner's own backend -- its supervisor, forked at
/// the first call, or its thread pool -- and returns the records in id
/// order.
using ChunkRunner =
    std::function<std::vector<ExperimentRecord>(std::span<const ExperimentId>)>;

/// A place where a run's chunks execute.  The runner hands it every chunk
/// it still owes, then takes finished chunks back one at a time and owns
/// everything journal-related itself.  Single-threaded from the runner's
/// side: start(), next() and finish() are called from one thread.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  /// Begins a run.  `chunks` are disjoint id sets in the order the runner
  /// would take them, valid until finish().  `supervisor` holds the pool
  /// settings remote executors should use; `run_local` may only be called
  /// from inside next().
  virtual void start(std::span<const std::span<const ExperimentId>> chunks,
                     const SupervisorOptions& supervisor,
                     ChunkRunner run_local) = 0;

  /// Blocks until one more chunk has finished and returns its records;
  /// chunks may come back in any order.  std::nullopt once every chunk has
  /// been returned -- or, once `should_stop` returns true, as soon as no
  /// already-finished chunk is left to return (no new chunk starts then).
  virtual std::optional<std::vector<ExperimentRecord>> next(
      const std::function<bool()>& should_stop) = 0;

  /// Ends the run (also on error); chunks still out are abandoned.
  virtual void finish() {}

  /// Adds work done away from the runner's backend -- remote worker
  /// deaths, hangs, requeues and quarantines -- to `stats`.
  virtual void add_stats(SupervisorStats& /*stats*/) const {}
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
  /// instead of fatal.  Required for hazard kernels.  The supervisor is
  /// forked at the first chunk this runner executes itself (a run whose
  /// chunks all execute elsewhere never forks one) and -- with it the ledger
  /// and the workers -- lives across all later chunks of the invocation; a
  /// resumed invocation rebuilds the ledger and converges to the same
  /// journal bytes.
  bool use_supervisor = false;
  SupervisorOptions supervisor;
  /// Thread pool for the in-process path; util::default_pool() when null.
  util::ThreadPool* pool = nullptr;

  /// Optional telemetry sink (telemetry/events.h): checkpoint.chunk and
  /// checkpoint.flush spans (the flush with the bytes it wrote) plus
  /// checkpoint.* counters (experiments, flushes, flush_bytes,
  /// compactions); forwarded to the
  /// supervisor (and through it the pool) when supervisor.telemetry is
  /// unset.  Never owned; must outlive the call.
  telemetry::Telemetry* telemetry = nullptr;

  /// Invoked after every journal flush (so everything it reports is already
  /// durable on disk).  ftb_served streams these to the submitting client.
  std::function<void(const CheckpointProgress&)> on_progress;

  /// Polled before each chunk; returning true stops the run after the
  /// journal has been flushed, leaving a resumable journal and setting
  /// CheckpointRunResult::stopped.  Chunks that already finished are still
  /// merged.  ftb_served's drain path uses this.
  std::function<bool()> should_stop;

  /// Where chunks run; null runs them all on this runner's own backend in
  /// order.  Never owned; must outlive the call.
  ChunkSource* chunk_source = nullptr;
};

struct CheckpointRunResult {
  CampaignLog log;              ///< deduped, includes resumed records
  bool resumed = false;         ///< true if an existing journal was loaded
  std::uint64_t skipped = 0;    ///< experiments satisfied by the journal
  std::uint64_t executed = 0;   ///< experiments actually run this invocation
  std::uint64_t flushes = 0;    ///< journal writes (including the final compaction)
  bool stopped = false;         ///< should_stop fired; journal is resumable
  /// Populated when use_supervisor or a chunk source is set.
  SupervisorStats supervisor_stats;
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
