#include "fi/snapshot.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <ctime>
#include <limits>
#include <set>
#include <vector>

#include "fi/fpbits.h"
#include "util/cache.h"

#if defined(__unix__) || defined(__APPLE__)
#define FTB_SNAPSHOT_POSIX 1
#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif
#else
#define FTB_SNAPSHOT_POSIX 0
#endif

namespace ftb::fi {

// ---------------------------------------------------------------------------
// Wire codec (platform-independent: fuzz tests run it everywhere)
// ---------------------------------------------------------------------------

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         static_cast<std::uint32_t>(in[1]) << 8 |
         static_cast<std::uint32_t>(in[2]) << 16 |
         static_cast<std::uint32_t>(in[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         static_cast<std::uint64_t>(get_u32(in + 4)) << 32;
}

bool fail(std::string* diagnostic, const char* message) {
  if (diagnostic != nullptr) *diagnostic = message;
  return false;
}

}  // namespace

void encode_snapshot_command(const SnapshotCommand& command,
                             std::uint8_t out[kSnapshotCommandBytes]) {
  std::memset(out, 0, kSnapshotCommandBytes);
  put_u32(out, kSnapshotMagic);
  out[4] = kSnapshotVersion;
  out[5] = static_cast<std::uint8_t>(command.injection.kind);
  out[6] = static_cast<std::uint8_t>(command.injection.target);
  put_u64(out + 8, command.seq);
  put_u64(out + 16, command.injection.site);
  put_u32(out + 24, static_cast<std::uint32_t>(command.injection.bit));
  put_u32(out + 28, command.injection.touch_point);
  put_u64(out + 32, to_bits(command.injection.operand));
  put_u64(out + 40, command.injection.mask);
  put_u32(out + 48, util::crc32(out, 48));
}

bool decode_snapshot_command(std::span<const std::uint8_t> bytes,
                             SnapshotCommand* command,
                             std::string* diagnostic) {
  if (bytes.size() != kSnapshotCommandBytes) {
    return fail(diagnostic, "snapshot command: wrong frame size");
  }
  if (get_u32(bytes.data()) != kSnapshotMagic) {
    return fail(diagnostic, "snapshot command: bad magic");
  }
  if (bytes[4] != kSnapshotVersion) {
    return fail(diagnostic, "snapshot command: unsupported version");
  }
  if (get_u32(bytes.data() + 48) != util::crc32(bytes.data(), 48)) {
    return fail(diagnostic, "snapshot command: bad crc");
  }
  if (bytes[5] > static_cast<std::uint8_t>(Injection::Kind::kXorMask)) {
    return fail(diagnostic, "snapshot command: unknown injection kind");
  }
  if (bytes[6] > static_cast<std::uint8_t>(Injection::Target::kMemory)) {
    return fail(diagnostic, "snapshot command: unknown injection target");
  }
  if (bytes[7] != 0) {
    return fail(diagnostic, "snapshot command: nonzero reserved byte");
  }
  command->seq = get_u64(bytes.data() + 8);
  command->injection.kind = static_cast<Injection::Kind>(bytes[5]);
  command->injection.target = static_cast<Injection::Target>(bytes[6]);
  command->injection.site = get_u64(bytes.data() + 16);
  command->injection.bit = static_cast<int>(get_u32(bytes.data() + 24));
  command->injection.touch_point = get_u32(bytes.data() + 28);
  command->injection.operand = from_bits(get_u64(bytes.data() + 32));
  command->injection.mask = get_u64(bytes.data() + 40);
  return true;
}

void encode_snapshot_response(const SnapshotResponse& response,
                              std::uint8_t out[kSnapshotResponseBytes]) {
  std::memset(out, 0, kSnapshotResponseBytes);
  put_u32(out, kSnapshotMagic);
  out[4] = kSnapshotVersion;
  out[5] = static_cast<std::uint8_t>(response.type);
  out[6] = static_cast<std::uint8_t>(response.result.outcome);
  out[7] = static_cast<std::uint8_t>(response.result.crash_reason);
  put_u64(out + 8, response.seq);
  put_u64(out + 16, response.site);
  out[24] = response.result.detector_fired ? 1 : 0;
  put_u64(out + 28, to_bits(response.result.injected_error));
  put_u64(out + 36, to_bits(response.result.output_error));
  put_u64(out + 44, response.result.crash_site);
  put_u32(out + 52, util::crc32(out, 52));
}

bool decode_snapshot_response(std::span<const std::uint8_t> bytes,
                              SnapshotResponse* response,
                              std::string* diagnostic) {
  if (bytes.size() != kSnapshotResponseBytes) {
    return fail(diagnostic, "snapshot response: wrong frame size");
  }
  if (get_u32(bytes.data()) != kSnapshotMagic) {
    return fail(diagnostic, "snapshot response: bad magic");
  }
  if (bytes[4] != kSnapshotVersion) {
    return fail(diagnostic, "snapshot response: unsupported version");
  }
  if (get_u32(bytes.data() + 52) != util::crc32(bytes.data(), 52)) {
    return fail(diagnostic, "snapshot response: bad crc");
  }
  const std::uint8_t type = bytes[5];
  if (type < static_cast<std::uint8_t>(SnapshotResponse::Type::kReady) ||
      type > static_cast<std::uint8_t>(SnapshotResponse::Type::kReject)) {
    return fail(diagnostic, "snapshot response: unknown frame type");
  }
  if (bytes[6] > static_cast<std::uint8_t>(Outcome::kDetected)) {
    return fail(diagnostic, "snapshot response: unknown outcome");
  }
  if (bytes[7] > static_cast<std::uint8_t>(CrashReason::kQuarantined)) {
    return fail(diagnostic, "snapshot response: unknown crash reason");
  }
  if (bytes[24] > 1) {
    return fail(diagnostic, "snapshot response: non-boolean detector flag");
  }
  if (bytes[25] != 0 || bytes[26] != 0 || bytes[27] != 0) {
    return fail(diagnostic, "snapshot response: nonzero reserved byte");
  }
  response->type = static_cast<SnapshotResponse::Type>(type);
  response->seq = get_u64(bytes.data() + 8);
  response->site = get_u64(bytes.data() + 16);
  response->result.outcome = static_cast<Outcome>(bytes[6]);
  response->result.crash_reason = static_cast<CrashReason>(bytes[7]);
  response->result.detector_fired = bytes[24] != 0;
  response->result.injected_error = from_bits(get_u64(bytes.data() + 28));
  response->result.output_error = from_bits(get_u64(bytes.data() + 36));
  response->result.crash_site = get_u64(bytes.data() + 44);
  return true;
}

bool snapshot_safe(const Program& program) {
  // fork() would duplicate only the calling thread, so a kernel
  // configuration that spawns worker threads (":thr=" by the kernel
  // config-key convention) cannot be paused into holders.
  return snapshot_supported() &&
         program.config_key().find(":thr=") == std::string::npos;
}

std::vector<std::uint64_t> plan_checkpoints(const GoldenRun& golden,
                                            const SnapshotOptions& options) {
  const std::uint64_t total = golden.trace.size();
  std::set<std::uint64_t> sites{0};
  if (options.include_phase_edges) {
    for (const PhaseMark& mark : golden.phases) {
      if (mark.begin < total) sites.insert(mark.begin);
    }
  }
  const std::size_t cap = std::max<std::size_t>(options.max_checkpoints, 1);
  // Density placement: with site hints, spend the slot budget left after
  // the mandatory checkpoints on quantiles of the observed site
  // distribution -- a checkpoint serves every experiment at or above it, so
  // equal-mass spacing minimises the replayed prefix where the campaign
  // actually injects.  Without hints, fall back to the uniform grid.
  std::vector<std::uint64_t> hints;
  hints.reserve(options.site_hints.size());
  for (std::uint64_t hint : options.site_hints) {
    if (hint < total) hints.push_back(hint);
  }
  if (!hints.empty()) {
    std::sort(hints.begin(), hints.end());
    const std::size_t budget = cap > sites.size() ? cap - sites.size() : 1;
    for (std::size_t i = 0; i < budget; ++i) {
      const std::size_t index =
          budget > 1 ? i * (hints.size() - 1) / (budget - 1)
                     : hints.size() / 2;
      sites.insert(hints[index]);
    }
  } else if (options.interval > 0) {
    for (std::uint64_t s = options.interval; s < total; s += options.interval) {
      sites.insert(s);
    }
  }
  std::vector<std::uint64_t> plan(sites.begin(), sites.end());
  if (plan.size() > cap) {
    std::vector<std::uint64_t> thinned;
    thinned.reserve(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      thinned.push_back(plan[i * (plan.size() - 1) / (cap - 1 ? cap - 1 : 1)]);
    }
    thinned.erase(std::unique(thinned.begin(), thinned.end()), thinned.end());
    plan = std::move(thinned);
  }
  return plan;
}

#if FTB_SNAPSHOT_POSIX

namespace {

constexpr std::uint64_t kDeadSlot = ~std::uint64_t{0};

bool read_exact(int fd, void* buffer, std::size_t bytes) {
  char* out = static_cast<char*>(buffer);
  while (bytes > 0) {
    const ssize_t got = ::read(fd, out, bytes);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// read_exact with a wall-clock deadline (parent side only; children block).
bool read_exact_deadline(int fd, void* buffer, std::size_t bytes,
                         std::chrono::steady_clock::time_point deadline) {
  char* out = static_cast<char*>(buffer);
  while (bytes > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::min<long long>(
                            left.count() + 1, 1000)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) continue;
    const ssize_t got = ::read(fd, out, bytes);
    if (got < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (got == 0) return false;
    out += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full_nosig(int fd, const void* buffer, std::size_t bytes) {
  const char* in = static_cast<const char*>(buffer);
  while (bytes > 0) {
    const ssize_t put = ::write(fd, in, bytes);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    in += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return true;
}

void die_with_parent() {
#if defined(__linux__)
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) ::_exit(0);  // parent already gone before prctl
#endif
}

/// Shared state for the runner process tree, threaded through the tracer's
/// checkpoint hook.  Forks mutate `role`/`experiment_seq` in the child
/// branch, which is how one shared code path serves runner, holder, and
/// experiment child.
struct TreeContext {
  const Program* program = nullptr;
  const GoldenRun* golden = nullptr;
  const SnapshotOptions* options = nullptr;
  std::vector<std::uint64_t> plan;    // planned sites, ascending, plan[0]==0
  std::vector<int> command_read;      // per-slot command pipe read ends
  int response_write = -1;            // shared response pipe write end
  int keepalive_read = -1;            // runner blocks here after the golden run
  std::size_t next_plan = 1;          // next plan slot (0 is forked pre-run)
  Tracer* tracer = nullptr;
  bool is_experiment = false;
  std::uint64_t experiment_seq = 0;
};

void send_response(const TreeContext& ctx, const SnapshotResponse& response) {
  std::uint8_t frame[kSnapshotResponseBytes];
  encode_snapshot_response(response, frame);
  // A parent that went away takes the whole tree with it (PDEATHSIG); a
  // failed write here needs no recovery.
  (void)write_full_nosig(ctx.response_write, frame, sizeof(frame));
}

/// Holder body, entered inside the checkpoint hook with the whole execution
/// paused in this process's address space.  Loops serving experiments;
/// returns ONLY in a forked experiment child (with the tracer rearmed), and
/// _exits on command-pipe EOF (parent teardown).
void holder_loop(TreeContext& ctx, Tracer& tracer, std::size_t slot,
                 std::uint64_t site) {
  const int fd = ctx.command_read[slot];
  for (;;) {
    std::uint8_t frame[kSnapshotCommandBytes];
    if (!read_exact(fd, frame, sizeof(frame))) ::_exit(0);
    SnapshotCommand command;
    std::string diagnostic;
    if (!decode_snapshot_command({frame, sizeof(frame)}, &command,
                                 &diagnostic)) {
      SnapshotResponse reject;
      reject.type = SnapshotResponse::Type::kReject;
      reject.seq = 0;  // the frame cannot be trusted, not even its seq
      reject.site = site;
      send_response(ctx, reject);
      continue;
    }
    const bool serveable = command.injection.is_memory_fault()
                               ? site == 0
                               : command.injection.site >= site;
    if (!serveable) {
      SnapshotResponse reject;
      reject.type = SnapshotResponse::Type::kReject;
      reject.seq = command.seq;
      reject.site = site;
      send_response(ctx, reject);
      continue;
    }

    const pid_t child = ::fork();
    if (child < 0) {
      SnapshotResponse reject;
      reject.type = SnapshotResponse::Type::kReject;
      reject.seq = command.seq;
      reject.site = site;
      send_response(ctx, reject);
      continue;
    }
    if (child == 0) {
      die_with_parent();  // tied to this holder
      ctx.is_experiment = true;
      ctx.experiment_seq = command.seq;
      tracer.rearm(command.injection);
      return;  // unwinds out of the hook and resumes the paused execution
    }

    // Watchdog: an experiment child gets timeout_ms of wall clock from its
    // fork.  This mirrors the worker pool's per-experiment heartbeat budget
    // (the pool beats only at experiment start/finish too).
    std::uint32_t budget_ms =
        ctx.options->timeout_ms != 0 ? ctx.options->timeout_ms
                                     : kDefaultSnapshotTimeoutMs;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    int status = 0;
    bool reaped = false;
    bool timed_out = false;
    for (;;) {
      const pid_t waited = ::waitpid(child, &status, WNOHANG);
      if (waited == child) {
        reaped = true;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        timed_out = true;
        break;
      }
      struct timespec nap {
        0, static_cast<long>(ctx.options->poll_interval_us) * 1000
      };
      ::nanosleep(&nap, nullptr);
    }
    if (timed_out) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      // The child may have finished or died on its own between the last
      // poll and the SIGKILL; believe the reaped status over the watchdog.
      reaped = true;
    }

    SnapshotResponse response;
    response.seq = command.seq;
    response.site = site;
    if (reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      continue;  // the child wrote its own kResult frame before exiting
    }
    response.type = SnapshotResponse::Type::kResult;
    if (reaped && WIFSIGNALED(status) && WTERMSIG(status) != SIGKILL) {
      response.result = isolation_result(
          Outcome::kCrash, crash_reason_from_signal(WTERMSIG(status)));
    } else if (reaped && WIFEXITED(status)) {
      response.result =
          isolation_result(Outcome::kCrash, CrashReason::kAbnormalExit);
    } else {
      response.result = isolation_result(Outcome::kHang, CrashReason::kNone);
    }
    send_response(ctx, response);
  }
}

/// Forks the holder for `slot`, pausing the current execution state as the
/// checkpoint.  In the runner it registers the holder and returns; in the
/// experiment-child branch it returns with ctx.is_experiment set.
void spawn_holder(TreeContext& ctx, Tracer& tracer, std::size_t slot,
                  std::uint64_t site) {
  const pid_t holder = ::fork();
  if (holder == 0) {
    die_with_parent();  // tied to the runner
    holder_loop(ctx, tracer, slot, site);
    return;  // experiment child: resume the paused execution
  }
  SnapshotResponse ready;
  ready.seq = slot;
  ready.site = holder > 0 ? site : kDeadSlot;  // fork failure: dead slot
  ready.type = SnapshotResponse::Type::kReady;
  send_response(ctx, ready);
}

std::uint64_t checkpoint_reached(void* ctx_raw, Tracer& tracer,
                                 std::uint64_t index) {
  auto* ctx = static_cast<TreeContext*>(ctx_raw);
  if (ctx->is_experiment) return Tracer::kNoCheckpoint;
  while (ctx->next_plan < ctx->plan.size() &&
         ctx->plan[ctx->next_plan] <= index) {
    const std::size_t slot = ctx->next_plan++;
    spawn_holder(*ctx, tracer, slot, index);
    if (ctx->is_experiment) return Tracer::kNoCheckpoint;
  }
  return ctx->next_plan < ctx->plan.size() ? ctx->plan[ctx->next_plan]
                                           : Tracer::kNoCheckpoint;
}

/// Runner process body.  Executes the golden run once, pausing holders at
/// every planned checkpoint; experiment children forked from those holders
/// re-enter this stack mid-run and finish it with a real fault armed.
[[noreturn]] void runner_main(TreeContext& ctx) {
  die_with_parent();  // tied to the supervising SnapshotServer process
  ::signal(SIGPIPE, SIG_IGN);

  // A never-firing placeholder keeps the runner's execution bit-identical
  // to the golden run while using the exact tracer mode (kInject) a classic
  // run_injected experiment would, so a rearmed child's tracer state is
  // indistinguishable from a fresh injector's.
  Tracer tracer = Tracer::injector(
      Injection::bit_flip(Tracer::kNoCheckpoint, 0));
  ctx.tracer = &tracer;
  tracer.arm_checkpoint_hook(
      {&ctx, checkpoint_reached},
      ctx.plan.size() > 1 ? ctx.plan[1] : Tracer::kNoCheckpoint);

  // The pre-run checkpoint (instruction 0): memory-resident faults and
  // sites below the first interval replay the whole program from here.
  spawn_holder(ctx, tracer, 0, 0);

  try {
    const std::vector<double> output = ctx.program->run(tracer);
    if (ctx.is_experiment) {
      SnapshotResponse response;
      response.type = SnapshotResponse::Type::kResult;
      response.seq = ctx.experiment_seq;
      response.result =
          classify_finished(*ctx.program, *ctx.golden, tracer, output);
      send_response(ctx, response);
      ::_exit(0);
    }
  } catch (const CrashSignal& signal) {
    if (!ctx.is_experiment) ::_exit(3);  // golden run can never trap
    SnapshotResponse response;
    response.type = SnapshotResponse::Type::kResult;
    response.seq = ctx.experiment_seq;
    response.result = classify_crash(tracer, signal.site);
    send_response(ctx, response);
    ::_exit(0);
  } catch (...) {
    // Mirrors the pool worker: an unexpected exception (bad_alloc from a
    // corrupted allocation size, ...) is an abnormal exit the holder
    // classifies.
    ::_exit(2);
  }

  // Golden run complete: announce the tree is built (site doubles as the
  // observed dynamic-instruction count for a determinism cross-check),
  // then sleep until the parent closes the keepalive pipe.
  SnapshotResponse built;
  built.type = SnapshotResponse::Type::kBuilt;
  built.seq = 0;
  built.site = tracer.steps();
  send_response(ctx, built);
  char byte = 0;
  while (::read(ctx.keepalive_read, &byte, 1) > 0) {
  }
  ::_exit(0);
}

}  // namespace

bool snapshot_supported() noexcept { return true; }

struct SnapshotServer::Impl {
  const Program& program;
  const GoldenRun& golden;
  SnapshotOptions options;
  SnapshotStats stats;

  std::vector<std::uint64_t> plan;    // planned checkpoint sites
  std::vector<std::uint64_t> actual;  // registered sites (kDeadSlot = dead)
  std::vector<int> command_write;     // parent write end per slot
  int response_read = -1;
  int keepalive_write = -1;
  pid_t runner = -1;
  std::uint64_t next_seq = 1;
  int rebuilds_left = 0;
  bool live = false;
  const bool safe;

  Impl(const Program& program_in, const GoldenRun& golden_in,
       SnapshotOptions options_in)
      : program(program_in),
        golden(golden_in),
        options(options_in),
        safe(snapshot_safe(program_in)) {
    if (options.timeout_ms == 0) options.timeout_ms = kDefaultSnapshotTimeoutMs;
    rebuilds_left = std::max(options.max_rebuilds, 0);
    if (safe) build();
  }

  ~Impl() { teardown(); }

  void close_fd(int& fd) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  void teardown() {
    for (int& fd : command_write) close_fd(fd);
    close_fd(keepalive_write);
    // Holders see EOF, the runner sees keepalive EOF; give the tree a
    // moment to exit, then SIGKILL (PDEATHSIG cascades to every holder and
    // experiment child under the runner).
    if (runner > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(500);
      int status = 0;
      for (;;) {
        const pid_t waited = ::waitpid(runner, &status, WNOHANG);
        if (waited == runner) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          ::kill(runner, SIGKILL);
          ::waitpid(runner, &status, 0);
          break;
        }
        struct timespec nap {
          0, 1000000
        };
        ::nanosleep(&nap, nullptr);
      }
      runner = -1;
    }
    close_fd(response_read);
    command_write.clear();
    actual.clear();
    live = false;
    stats.checkpoints = 0;
  }

  void build() {
    teardown();
    plan = plan_checkpoints(golden, options);
    actual.assign(plan.size(), kDeadSlot);

    TreeContext ctx;
    ctx.program = &program;
    ctx.golden = &golden;
    ctx.options = &options;
    ctx.plan = plan;

    int response_fds[2];
    if (::pipe(response_fds) != 0) return;
    int keepalive_fds[2];
    if (::pipe(keepalive_fds) != 0) {
      ::close(response_fds[0]);
      ::close(response_fds[1]);
      return;
    }
    std::vector<std::array<int, 2>> command_fds(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (::pipe(command_fds[i].data()) != 0) {
        for (std::size_t j = 0; j < i; ++j) {
          ::close(command_fds[j][0]);
          ::close(command_fds[j][1]);
        }
        ::close(response_fds[0]);
        ::close(response_fds[1]);
        ::close(keepalive_fds[0]);
        ::close(keepalive_fds[1]);
        return;
      }
    }

    ctx.response_write = response_fds[1];
    ctx.keepalive_read = keepalive_fds[0];
    ctx.command_read.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ctx.command_read[i] = command_fds[i][0];
    }

    const pid_t pid = ::fork();
    if (pid == 0) {
      // Runner: drop every parent-side end so pipe EOFs mean what they
      // should (a command pipe reaches EOF only once the parent's write
      // end -- the sole remaining one -- closes).
      ::close(response_fds[0]);
      ::close(keepalive_fds[1]);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        ::close(command_fds[i][1]);
      }
      runner_main(ctx);  // never returns
    }
    ::close(response_fds[1]);
    ::close(keepalive_fds[0]);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      ::close(command_fds[i][0]);
    }
    if (pid < 0) {
      ::close(response_fds[0]);
      ::close(keepalive_fds[1]);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        ::close(command_fds[i][1]);
      }
      return;
    }
    runner = pid;
    response_read = response_fds[0];
    keepalive_write = keepalive_fds[1];
    command_write.resize(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      command_write[i] = command_fds[i][1];
    }

    // Collect kReady registrations until the runner announces kBuilt.  The
    // golden run itself bounds this phase; 60 s is far beyond any kernel in
    // the tree and exists only so a wedged runner cannot wedge us.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      std::uint8_t frame[kSnapshotResponseBytes];
      if (!read_exact_deadline(response_read, frame, sizeof(frame),
                               deadline)) {
        teardown();
        return;
      }
      SnapshotResponse response;
      if (!decode_snapshot_response({frame, sizeof(frame)}, &response)) {
        ++stats.rejected_frames;
        teardown();
        return;
      }
      if (response.type == SnapshotResponse::Type::kReady) {
        if (response.seq < actual.size()) actual[response.seq] = response.site;
        continue;
      }
      if (response.type == SnapshotResponse::Type::kBuilt) {
        if (response.site != golden.trace.size()) {
          teardown();  // nondeterministic program: refuse to serve from it
          return;
        }
        break;
      }
      ++stats.rejected_frames;
      teardown();
      return;
    }

    std::size_t live_slots = 0;
    for (std::uint64_t site : actual) {
      if (site != kDeadSlot) ++live_slots;
    }
    if (live_slots == 0 || actual[0] != 0) {
      teardown();
      return;
    }
    stats.checkpoints = live_slots;
    live = true;
  }

  /// Slot with the largest registered site <= `site` (memory faults pin to
  /// the pre-run slot 0).  Returns npos when no slot fits.
  std::size_t pick_slot(const Injection& injection) const {
    if (injection.is_memory_fault()) {
      return actual.empty() || actual[0] != 0 ? std::string::npos : 0;
    }
    std::size_t best = std::string::npos;
    for (std::size_t i = 0; i < actual.size(); ++i) {
      if (actual[i] == kDeadSlot || actual[i] > injection.site) continue;
      if (best == std::string::npos || actual[i] > actual[best]) best = i;
    }
    return best;
  }

  bool damaged() {
    if (runner <= 0) return true;
    int status = 0;
    return ::waitpid(runner, &status, WNOHANG) != 0;
  }

  ExperimentResult fallback(const Injection& injection) {
    ++stats.fallback_experiments;
    return run_injected(program, golden, injection);
  }

  ExperimentResult run(const Injection& injection) {
    if (!safe) return fallback(injection);
    for (;;) {
      if (!live || damaged()) {
        // Permanent degradation once the rebuild budget is spent: reap what
        // is left of the tree so healthy() reports the truth.
        if (rebuilds_left <= 0) {
          teardown();
          return fallback(injection);
        }
        --rebuilds_left;
        ++stats.rebuilds;
        build();
        if (!live) return fallback(injection);
      }

      const std::size_t slot = pick_slot(injection);
      if (slot == std::string::npos) return fallback(injection);

      SnapshotCommand command;
      command.seq = next_seq++;
      command.injection = injection;
      std::uint8_t frame[kSnapshotCommandBytes];
      encode_snapshot_command(command, frame);
      if (!write_full_nosig(command_write[slot], frame, sizeof(frame))) {
        // Holder gone: the tree is damaged; rebuild (or degrade) and retry.
        live = false;
        continue;
      }

      // The holder enforces timeout_ms on the child and then reports, so a
      // healthy tree always answers within one budget plus slack.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(2 * options.timeout_ms + 1000);
      for (;;) {
        std::uint8_t in[kSnapshotResponseBytes];
        if (!read_exact_deadline(response_read, in, sizeof(in), deadline)) {
          live = false;  // deadline or broken pipe: damage
          break;
        }
        SnapshotResponse response;
        if (!decode_snapshot_response({in, sizeof(in)}, &response)) {
          ++stats.rejected_frames;
          live = false;  // desynchronised stream: rebuild
          break;
        }
        if (response.seq < command.seq) {
          ++stats.rejected_frames;  // stale frame from an earlier timeout
          continue;
        }
        if (response.type == SnapshotResponse::Type::kResult &&
            response.seq == command.seq) {
          ++stats.served;
          if (!injection.is_memory_fault()) {
            stats.skipped_prefix += actual[slot];
          }
          return response.result;
        }
        if (response.type == SnapshotResponse::Type::kReject) {
          ++stats.rejected_frames;
          return fallback(injection);
        }
        ++stats.rejected_frames;
        live = false;  // unexpected frame type mid-serve
        break;
      }
    }
  }

  std::uint64_t nearest(std::uint64_t site) const {
    std::uint64_t best = Tracer::kNoCheckpoint;
    for (std::uint64_t s : actual) {
      if (s == kDeadSlot || s > site) continue;
      if (best == Tracer::kNoCheckpoint || s > best) best = s;
    }
    return best;
  }
};

SnapshotServer::SnapshotServer(const Program& program, const GoldenRun& golden,
                               SnapshotOptions options)
    : impl_(std::make_unique<Impl>(program, golden, options)) {}

SnapshotServer::~SnapshotServer() = default;

bool SnapshotServer::healthy() const noexcept { return impl_->live; }

std::size_t SnapshotServer::checkpoint_count() const noexcept {
  return impl_->live ? impl_->stats.checkpoints : 0;
}

std::uint64_t SnapshotServer::nearest_checkpoint(
    std::uint64_t site) const noexcept {
  return impl_->live ? impl_->nearest(site) : Tracer::kNoCheckpoint;
}

std::int64_t SnapshotServer::runner_pid() const noexcept {
  return impl_->live ? static_cast<std::int64_t>(impl_->runner) : -1;
}

ExperimentResult SnapshotServer::run(const Injection& injection) {
  return impl_->run(injection);
}

const SnapshotStats& SnapshotServer::stats() const noexcept {
  return impl_->stats;
}

#else  // !FTB_SNAPSHOT_POSIX

bool snapshot_supported() noexcept { return false; }

// Without fork() there is no tree; the server exists but every experiment
// takes the in-process path, so callers need no platform branches.
struct SnapshotServer::Impl {
  const Program& program;
  const GoldenRun& golden;
  SnapshotStats stats;
  Impl(const Program& p, const GoldenRun& g) : program(p), golden(g) {}
};

SnapshotServer::SnapshotServer(const Program& program, const GoldenRun& golden,
                               SnapshotOptions)
    : impl_(std::make_unique<Impl>(program, golden)) {}

SnapshotServer::~SnapshotServer() = default;

bool SnapshotServer::healthy() const noexcept { return false; }

std::size_t SnapshotServer::checkpoint_count() const noexcept { return 0; }

std::uint64_t SnapshotServer::nearest_checkpoint(std::uint64_t) const noexcept {
  return Tracer::kNoCheckpoint;
}

std::int64_t SnapshotServer::runner_pid() const noexcept { return -1; }

ExperimentResult SnapshotServer::run(const Injection& injection) {
  ++impl_->stats.fallback_experiments;
  return run_injected(impl_->program, impl_->golden, injection);
}

const SnapshotStats& SnapshotServer::stats() const noexcept {
  return impl_->stats;
}

#endif  // FTB_SNAPSHOT_POSIX

}  // namespace ftb::fi
