// Snapshot fork-server: O(distance-to-snapshot) fault-injection experiments
// via copy-on-write checkpoints.
//
// The classic executors (fi/executor.h, and the worker pool in fi/sandbox.h)
// re-execute the kernel from dynamic instruction 0 for every experiment, so
// a campaign's replay work grows with the injection site: O(sites^2)
// dynamic work over a full sweep.  This file applies the fuzzer fork-server idiom to fault injection
// instead:
//
//   * a *runner* process executes the golden run exactly once, with a
//     checkpoint hook armed on its Tracer (Tracer::CheckpointHook);
//   * at every planned checkpoint -- dynamic instruction 0 (before run()
//     starts, so memory-resident faults replay from scratch), every phase
//     edge, and every `interval` dynamic instructions -- the hook fork()s a
//     *holder* child whose entire address space IS the snapshot: the paused
//     call stack, the tracer, and all live kernel state, captured for free
//     by copy-on-write;
//   * each experiment forks an *experiment child* from the holder with the
//     largest checkpoint index <= the injection site.  The child rearms the
//     inherited tracer with the real fault (Tracer::rearm), returns out of
//     the hook, and simply continues the paused execution -- no state
//     serialization, no replayed prefix -- then classifies through the very
//     same classify_finished / classify_crash the in-process executor uses,
//     so results are bit-identical to run_injected() for well-behaved
//     programs.
//
// Control plane: the parent owns one command pipe per checkpoint and a
// single shared response pipe.  All frames are fixed-size, CRC-framed, and
// rejected -- never trusted -- on any corruption (encode/decode exposed
// below so tests can fuzz them like net/frame.h).  Holders apply a
// per-experiment watchdog, classify real signal deaths of experiment
// children through isolation_result() / crash_reason_from_signal()
// (fi/outcome.h), exactly as the worker pool does, and every level of the
// tree arms PR_SET_PDEATHSIG so a killed campaign never leaks a paused
// process.  When the tree is damaged (runner death, frame corruption,
// response deadline) the server rebuilds it up to `max_rebuilds` times and
// otherwise falls back to the in-process executor, one experiment at a
// time, so a degraded server is slow but never wrong.
//
// fork() is only safe when the kernel configuration is single-threaded;
// snapshot_safe() gates threaded configurations (":thr=" in the config
// key) off to the classic path.  Single-threaded, like the worker pool:
// construct, run(), and destroy from one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fi/executor.h"
#include "fi/outcome.h"
#include "fi/program.h"
#include "fi/tracer.h"

namespace ftb::fi {

/// The holder's per-experiment watchdog when SnapshotOptions::timeout_ms
/// is 0.
inline constexpr std::uint32_t kDefaultSnapshotTimeoutMs = 2000;

struct SnapshotOptions {
  /// Checkpoint cadence in dynamic instructions.  Phase edges are always
  /// checkpointed too (see include_phase_edges); the pre-run checkpoint at
  /// instruction 0 always exists.
  std::uint64_t interval = 4096;

  /// Upper bound on live holder processes.  A plan longer than this is
  /// thinned evenly (instruction 0 is never dropped).
  std::uint32_t max_checkpoints = 32;

  /// Also checkpoint at every golden PhaseMark boundary.
  bool include_phase_edges = true;

  /// Per-experiment watchdog applied by the holder, measured from the
  /// experiment child's fork.  0 is not honoured here: campaign-driven runs
  /// must always have a deadline, so 0 falls back to
  /// kDefaultSnapshotTimeoutMs.
  std::uint32_t timeout_ms = kDefaultSnapshotTimeoutMs;

  /// Holder poll cadence while an experiment child runs.
  std::uint32_t poll_interval_us = 200;

  /// Tree rebuilds permitted before the server degrades permanently to the
  /// in-process executor.
  int max_rebuilds = 2;

  /// Observed injection-site density -- typically the campaign's pending
  /// sites.  When non-empty, checkpoint slots beyond the mandatory ones
  /// (instruction 0 and phase edges) are placed at quantiles of this
  /// distribution instead of on the uniform `interval` grid, so the
  /// checkpoint budget concentrates where experiments actually fork.
  /// Placement affects speed only; journal bytes never depend on it.
  std::vector<std::uint64_t> site_hints;
};

/// Observability counters over the server's lifetime.
struct SnapshotStats {
  std::uint64_t checkpoints = 0;      // holders in the current tree
  std::uint64_t served = 0;           // experiments answered by a fork
  std::uint64_t fallback_experiments = 0;  // run in-process instead
  std::uint64_t rejected_frames = 0;  // malformed/stale frames dropped
  std::uint64_t rebuilds = 0;         // tree rebuilds after damage
  std::uint64_t skipped_prefix = 0;   // dynamic instructions not re-executed
};

// ---------------------------------------------------------------------------
// Wire codec for the control channel, exposed for fuzz tests.  Both frames
// are fixed-size (well under PIPE_BUF, so pipe writes are atomic) and carry
// a trailing CRC-32 over every preceding byte: any 1-byte corruption or
// truncation decodes to a diagnostic, never to a frame.
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kSnapshotMagic = 0x46544253u;  // "FTBS"
inline constexpr std::uint8_t kSnapshotVersion = 1;

/// Parent -> holder: run one experiment.  The injection is flattened field
/// by field (doubles bit-exactly via fi/fpbits.h), never memcpy'd as a
/// struct, so padding bytes can never leak or desynchronise the CRC.
struct SnapshotCommand {
  std::uint64_t seq = 0;
  Injection injection{};
};

/// Holder/runner/child -> parent.
struct SnapshotResponse {
  enum class Type : std::uint8_t {
    kReady = 1,   // runner registered checkpoint `seq` at instruction `site`
    kBuilt = 2,   // runner finished the golden run; `site` = instructions
    kResult = 3,  // experiment `seq` finished; result fields valid
    kReject = 4,  // holder refused experiment `seq` (bad frame / bad site)
  };

  Type type = Type::kResult;
  std::uint64_t seq = 0;
  std::uint64_t site = 0;
  ExperimentResult result{};
};

inline constexpr std::size_t kSnapshotCommandBytes = 52;
inline constexpr std::size_t kSnapshotResponseBytes = 56;

void encode_snapshot_command(const SnapshotCommand& command,
                             std::uint8_t out[kSnapshotCommandBytes]);
void encode_snapshot_response(const SnapshotResponse& response,
                              std::uint8_t out[kSnapshotResponseBytes]);

/// Strict decoders: exact size, magic, version, known enum values, and CRC
/// all checked.  On failure they return false and, when `diagnostic` is
/// non-null, explain what was wrong ("snapshot command: bad crc", ...).
bool decode_snapshot_command(std::span<const std::uint8_t> bytes,
                             SnapshotCommand* command,
                             std::string* diagnostic = nullptr);
bool decode_snapshot_response(std::span<const std::uint8_t> bytes,
                              SnapshotResponse* response,
                              std::string* diagnostic = nullptr);

/// True when this build/platform can run a snapshot tree (fork + pipes).
bool snapshot_supported() noexcept;

/// True when `program` may be served from snapshots: fork() requires a
/// single-threaded kernel configuration, recognised (by the kernel config
/// key convention) as the absence of a ":thr=" marker.
bool snapshot_safe(const Program& program);

/// Planned checkpoint sites for `golden` under `options`: instruction 0,
/// every phase edge (include_phase_edges), then either density quantiles of
/// options.site_hints or the uniform `interval` grid, thinned evenly to
/// max_checkpoints (instruction 0 is never dropped).  Exposed for tests and
/// bench/micro_supervisor.
std::vector<std::uint64_t> plan_checkpoints(const GoldenRun& golden,
                                            const SnapshotOptions& options);

class SnapshotServer {
 public:
  /// Builds the snapshot tree immediately: runs the golden execution once
  /// in a forked runner, pausing holders along the way.  `program` and
  /// `golden` must outlive the server.  Construction failure is not an
  /// error -- the server comes up unhealthy and run() falls back
  /// in-process.
  SnapshotServer(const Program& program, const GoldenRun& golden,
                 SnapshotOptions options = {});
  ~SnapshotServer();
  SnapshotServer(const SnapshotServer&) = delete;
  SnapshotServer& operator=(const SnapshotServer&) = delete;

  /// True while the tree is live and serving.  A damaged tree flips this
  /// until the next successful rebuild (run() rebuilds on demand).
  bool healthy() const noexcept;

  /// Checkpoints in the current tree (0 when unhealthy).
  std::size_t checkpoint_count() const noexcept;

  /// Dynamic instruction of the nearest checkpoint at or below `site`
  /// (kNoCheckpoint when unhealthy).  Exposed for tests and benches.
  std::uint64_t nearest_checkpoint(std::uint64_t site) const noexcept;

  /// OS pid of the runner process, or -1 when no tree is live.  For tests
  /// that damage the tree externally (mirrors WorkerPool::worker_pid).
  std::int64_t runner_pid() const noexcept;

  /// Runs one experiment, forked from the nearest checkpoint <= its site
  /// (memory faults replay from the pre-run checkpoint).  Bit-identical to
  /// run_injected() for well-behaved programs; on tree damage the
  /// experiment is retried on a rebuilt tree and, past max_rebuilds, run
  /// in-process.
  ExperimentResult run(const Injection& injection);

  const SnapshotStats& stats() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftb::fi
