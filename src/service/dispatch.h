// Lease-based chunk dispatcher: the campaign plane's distributed executor.
//
// ftb_workerd daemons connect to ftb_served on the ordinary wire protocol
// and register with WorkerHello.  ChunkDispatcher is a campaign::ChunkSource
// (campaign/checkpoint.h): when a job runs with live workers, the job
// runner hands it to run_campaign_checkpointed, which still owns the whole
// journal -- load, resume, flush, progress, stop and dedupe.  The
// dispatcher only decides where each chunk the runner still owes executes,
// handing chunks to workers under a TTL lease:
//
//   * leases are renewed only by an *advance* of the worker's monotonic
//     WorkerHeartbeat counter -- a SIGSTOPped worker whose kernel keeps the
//     TCP socket open still goes stale, its leases expire, and its chunks
//     requeue exactly once (chunks are disjoint id sets and a chunk has one
//     winner, so the journal never sees a duplicate experiment record);
//   * a dead connection expires the worker's leases immediately;
//   * a chunk leased longer than straggler_timeout_ms is speculatively
//     re-dispatched to a second worker (or stolen by the local runner);
//     the first WorkerChunkResult wins and later twins are dropped;
//   * a worker that answers a chunk with ok=false is charged a
//     per-(worker,chunk) grudge with jittered exponential backoff before it
//     may be offered that chunk again; repeated kills quarantine the whole
//     worker for a jittered backoff window (re-admission is automatic);
//   * the runner thread co-executes: whenever no finished chunk is waiting
//     it claims a pending chunk and runs it on the runner's own supervisor
//     (forked at the first such chunk, so a fully remote job never forks a
//     pool), so losing every worker mid-job still finishes the job.
//
// Finished chunks go back to the runner one at a time, in completion order;
// experiment outcomes are deterministic and the final dedupe() sorts by id,
// so the finished journal -- and the boundary inferred from it -- is
// byte-identical to a local-only run no matter which worker executed what,
// how many leases expired, or where a kill -9 landed.
//
// Threading: WorkerHello/Heartbeat/ChunkResult/disconnect/tick arrive on
// the server's event-loop thread; the ChunkSource calls run on the
// job-runner thread.  One mutex guards all shared state; the runner blocks
// on a condition variable while remote chunks are in flight.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "campaign/checkpoint.h"
#include "campaign/sample_space.h"
#include "campaign/supervisor.h"
#include "net/frame.h"
#include "service/protocol.h"
#include "telemetry/events.h"
#include "util/rng.h"

namespace ftb::service {

/// The pool settings every daemon campaign runs under -- a job on
/// ftb_served and a leased chunk on ftb_workerd alike: `workers` clamped to
/// [1, 16]; timeout 0 replaced by kFallbackDeadlineMs, since a client must
/// not be able to switch hang detection off on an unattended daemon; the
/// snapshot trees' deadline equal to the heartbeat's; and no in-process
/// fallback, since a hazard flip that escapes isolation could hang or kill
/// the whole daemon -- a pool that degrades to nothing fails the one job or
/// chunk instead.
campaign::SupervisorOptions daemon_supervisor(
    std::uint32_t workers, std::uint32_t timeout_ms,
    std::uint32_t quarantine_after, bool use_snapshots,
    std::uint64_t snapshot_interval, telemetry::Telemetry* telemetry);

struct DispatchOptions {
  /// Heartbeat cadence advertised to workers in WorkerHelloOk.
  std::uint32_t heartbeat_interval_ms = 250;
  /// A worker whose heartbeat counter has not advanced for this long is
  /// stale: its leases expire and requeue, and it gets no new chunks until
  /// a heartbeat advance re-admits it.
  std::uint32_t lease_timeout_ms = 3000;
  /// A remote chunk leased longer than this is a straggler and becomes
  /// eligible for speculative re-dispatch (second holder, first result
  /// wins).
  std::uint32_t straggler_timeout_ms = 20000;
  /// Chunk kills (ok=false results) a worker may accumulate before the
  /// whole worker is quarantined for a backoff window.
  std::uint32_t worker_quarantine_after = 3;
  /// Base backoff for per-(worker,chunk) grudges and worker quarantine;
  /// doubles per repeat and is jittered +/-25% so re-admissions do not
  /// stampede.
  std::uint32_t quarantine_backoff_ms = 1000;
  /// Seed for the deterministic jitter stream.
  std::uint64_t jitter_seed = 0x77ab5eedu;
  /// Shared secret a WorkerHello must carry to register; empty admits any
  /// worker (loopback / trusted-network deployments).  Worker-plane frames
  /// from connections that never registered are dropped regardless.
  std::string worker_token;
  telemetry::Telemetry* telemetry = nullptr;
  /// Test seam: monotonic clock in nanoseconds (steady_clock when unset).
  std::function<std::uint64_t()> now_ns;
};

class ChunkDispatcher final : public campaign::ChunkSource {
 public:
  explicit ChunkDispatcher(DispatchOptions options = {});

  /// Wires frame output and loop wakeups; both must be thread-safe (the
  /// Service points them at net::Server::send / wake).  Call before the
  /// event loop starts handing frames in.
  void attach(std::function<void(std::uint64_t, const net::Frame&)> sender,
              std::function<void()> waker);

  // --- event-loop thread --------------------------------------------------
  void handle_hello(std::uint64_t conn, const WorkerHello& hello);
  void handle_heartbeat(std::uint64_t conn, const WorkerHeartbeat& heartbeat);
  void handle_result(std::uint64_t conn, WorkerChunkResult result);
  void handle_disconnect(std::uint64_t conn);
  /// Lease sweep + straggler detection + chunk dispatch.
  void on_tick();

  /// Workers currently admissible for leases (registered, heartbeat fresh).
  std::size_t live_workers() const;

  // --- job-runner thread --------------------------------------------------
  /// Names the program the next job's workers rebuild (kernel@preset).
  /// Call before handing the dispatcher to run_campaign_checkpointed.
  void set_program(std::string kernel, std::string preset);

  /// campaign::ChunkSource.  Exactly one job may be active at a time (the
  /// JobRunner is serial); start() throws std::logic_error otherwise.
  void start(std::span<const std::span<const campaign::ExperimentId>> chunks,
             const campaign::SupervisorOptions& supervisor,
             campaign::ChunkRunner run_local) override;
  std::optional<std::vector<campaign::ExperimentRecord>> next(
      const std::function<bool()>& should_stop) override;
  /// Outstanding remote leases die with the job; late results become
  /// stale and never merge.
  void finish() override;
  void add_stats(campaign::SupervisorStats& stats) const override;

 private:
  struct Chunk {
    enum class State { kPending, kLeased, kDone };
    std::uint64_t seq = 0;
    std::vector<campaign::ExperimentId> ids;
    State state = State::kPending;
    std::vector<std::uint64_t> holders;  ///< worker ids; 0 == local runner
    std::uint64_t first_leased_ns = 0;
    bool speculated = false;
    std::vector<campaign::ExperimentRecord> records;  ///< winner's output
  };

  struct Grudge {
    std::uint32_t failures = 0;
    std::uint64_t not_before_ns = 0;
  };

  struct Worker {
    std::uint64_t id = 0;
    std::uint64_t conn = 0;
    std::string name;
    std::uint32_t capacity = 1;
    std::uint64_t heartbeat_seq = 0;
    std::uint64_t last_advance_ns = 0;
    bool stale = false;
    std::uint32_t kills = 0;  ///< consecutive chunk failures
    std::uint64_t quarantined_until_ns = 0;
    std::vector<std::uint64_t> leased;            ///< chunk seqs
    std::map<std::uint64_t, Grudge> grudges;      ///< per-(worker,chunk)
  };

  /// Counts the runner adds to its supervisor stats (add_stats).
  struct RemoteStats {
    std::uint64_t worker_deaths = 0;  ///< folded from winning results
    std::uint64_t worker_hangs = 0;
    std::uint64_t requeued = 0;  ///< ids requeued here or on a worker
    std::uint64_t quarantined = 0;
  };

  struct Job {
    bool active = false;
    std::uint64_t id = 0;
    std::string kernel, preset;
    std::uint32_t pool_workers = 2;
    std::uint32_t timeout_ms = 2000;
    std::uint32_t quarantine_after = 3;
    std::vector<Chunk> chunks;
    std::size_t done = 0;
    std::deque<std::size_t> completed;  ///< chunk indexes awaiting return
    bool stopping = false;  ///< should_stop fired: no new leases
    RemoteStats stats;
  };

  std::uint64_t now() const;
  std::uint64_t jittered_backoff_locked(std::uint32_t failures);
  void count(const char* name, std::uint64_t delta = 1);
  Worker* worker_by_conn_locked(std::uint64_t conn);
  void release_holders_locked(Chunk& chunk);
  void requeue_chunk_locked(Chunk& chunk, std::uint64_t loser);
  void expire_worker_locked(Worker& worker);
  void dispatch_locked(std::uint64_t now_ns);
  bool worker_may_take_locked(const Worker& worker, const Chunk& chunk,
                              std::uint64_t now_ns) const;

  // Runner-side helpers (each takes the mutex).
  std::optional<std::pair<std::uint64_t, std::vector<campaign::ExperimentId>>>
  claim_local_chunk();
  void complete_local_chunk(std::uint64_t seq,
                            std::vector<campaign::ExperimentRecord> records);

  DispatchOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::function<void(std::uint64_t, const net::Frame&)> sender_;
  std::function<void()> waker_;
  std::map<std::uint64_t, Worker> workers_;        // by worker id
  std::map<std::uint64_t, std::uint64_t> by_conn_; // conn -> worker id
  std::uint64_t next_worker_id_ = 1;
  std::uint64_t job_counter_ = 0;
  Job job_;
  std::string kernel_, preset_;  ///< set_program(), copied into the next job
  // Runner-thread state of the active job.
  campaign::ChunkRunner run_local_;
  std::optional<telemetry::SpanScope> job_span_;
  util::Rng jitter_;
};

}  // namespace ftb::service
