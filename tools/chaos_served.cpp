// chaos_served: crash-recovery harness for ftb_served.
//
// Repeatedly spawns the real daemon binary, submits campaign jobs, waits a
// random (seeded) delay, and SIGKILLs the process -- most rounds with the
// FTB_CHAOS syscall-fault layer armed so short reads/writes and EINTR hit
// the network and journal paths while the axe falls.  After every kill it
// audits the store directory:
//
//   * no acked job is lost: every CampaignAccepted job id, plus every job
//     that was pending before the incarnation started, appears in the job
//     ledger's replay (pending or terminal);
//   * no torn artifact is loadable as valid: every *.boundary and *.clog
//     present parses cleanly (the atomic tmp+rename discipline means a file
//     either exists whole or not at all);
//   * the ledger replay itself never fails catastrophically (a torn tail is
//     reported and dropped, never trusted).
//
// A final clean incarnation then proves recovery end-to-end: all interrupted
// jobs resume from their journals and finish, every acked key is published
// and queryable, a graceful drain leaves the ledger empty of pending work,
// and the seed-1 journal is byte-identical to an uninterrupted reference
// campaign -- the same convergence contract `ftb_analyze campaign --resume`
// makes.
//
// Exit 0 when every invariant held across all kills; exit 1 with a FAIL
// line otherwise.  Used by the service_chaos_smoke ctest (few kills) and
// the CI chaos job (50 kills, the acceptance bar).
#include <fcntl.h>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "boundary/serialize.h"
#include "campaign/checkpoint.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "net/client.h"
#include "net/socket.h"
#include "service/ledger.h"
#include "service/protocol.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

namespace fs = std::filesystem;
using namespace ftb;

struct Daemon {
  pid_t pid = -1;
  int stdout_fd = -1;
  std::uint16_t port = 0;
};

[[noreturn]] void fail(const Daemon* daemon, const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "FAIL: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
  if (daemon != nullptr && daemon->pid > 0) {
    ::kill(daemon->pid, SIGKILL);
    ::waitpid(daemon->pid, nullptr, 0);
  }
  std::exit(1);
}

/// Forks and execs the daemon, scraping the ephemeral port off its stdout.
/// `chaos_spec` non-empty arms FTB_CHAOS in the child's environment.
std::optional<Daemon> spawn_daemon(const std::string& served,
                                   const std::string& store_dir,
                                   const std::string& chaos_spec,
                                   const std::vector<std::string>& extra_args = {}) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return std::nullopt;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    if (chaos_spec.empty()) {
      ::unsetenv("FTB_CHAOS");
    } else {
      ::setenv("FTB_CHAOS", chaos_spec.c_str(), 1);
    }
    std::vector<const char*> args;
    args.push_back(served.c_str());
    args.push_back("--port");
    args.push_back("0");
    args.push_back("--store-dir");
    args.push_back(store_dir.c_str());
    args.push_back("--queue");
    args.push_back("64");
    for (const std::string& arg : extra_args) args.push_back(arg.c_str());
    args.push_back(nullptr);
    ::execv(served.c_str(), const_cast<char* const*>(args.data()));
    std::fprintf(stderr, "exec %s failed: %s\n", served.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);

  // Scrape "listening on 127.0.0.1:<port>" with a startup deadline.
  Daemon daemon;
  daemon.pid = pid;
  daemon.stdout_fd = pipe_fds[0];
  std::string buffer;
  const char* needle = "listening on 127.0.0.1:";
  for (int waited_ms = 0; waited_ms < 30000;) {
    struct pollfd pfd{daemon.stdout_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    waited_ms += 100;
    if (ready <= 0) continue;
    char chunk[256];
    const ssize_t got = ::read(daemon.stdout_fd, chunk, sizeof(chunk));
    if (got <= 0) break;  // EOF: the child died before listening
    buffer.append(chunk, static_cast<std::size_t>(got));
    const auto pos = buffer.find(needle);
    if (pos != std::string::npos &&
        buffer.find('\n', pos) != std::string::npos) {
      daemon.port = static_cast<std::uint16_t>(
          std::strtoul(buffer.c_str() + pos + std::strlen(needle), nullptr,
                       10));
      return daemon;
    }
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  ::close(daemon.stdout_fd);
  return std::nullopt;
}

void kill_hard(Daemon& daemon) {
  ::kill(daemon.pid, SIGKILL);
  ::waitpid(daemon.pid, nullptr, 0);
  ::close(daemon.stdout_fd);
  daemon.pid = -1;
}

/// SIGTERM + bounded wait; true when the daemon drained and exited 0.
bool stop_graceful(Daemon& daemon) {
  ::kill(daemon.pid, SIGTERM);
  int status = 0;
  for (int waited_ms = 0; waited_ms < 120000; waited_ms += 50) {
    const pid_t done = ::waitpid(daemon.pid, &status, WNOHANG);
    if (done == daemon.pid) {
      ::close(daemon.stdout_fd);
      daemon.pid = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(50 * 1000);
  }
  kill_hard(daemon);
  return false;
}

/// Crude counter extraction from the ftb.telemetry.metrics/1 JSON.
std::optional<std::uint64_t> json_counter(const std::string& json,
                                          const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Validates that every artifact the store holds parses cleanly.  A crash
/// can leave *.tmp staging files behind (harmless, ignored); it must never
/// leave a torn *.boundary or *.clog, because those are published by
/// atomic rename only.
void audit_store_files(const std::string& store_dir, const Daemon* daemon) {
  for (const auto& entry : fs::directory_iterator(store_dir)) {
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    std::string error;
    if (ext == ".boundary") {
      if (!boundary::load_artifact_from_file(path, {}, &error).has_value()) {
        fail(daemon, "torn boundary artifact survived a kill: %s (%s)",
             path.c_str(), error.c_str());
      }
    } else if (ext == ".clog") {
      if (!campaign::CampaignLog::load(path, &error).has_value()) {
        fail(daemon, "torn campaign journal survived a kill: %s (%s)",
             path.c_str(), error.c_str());
      }
    }
  }
}

std::string key_for_seed(std::uint64_t seed) {
  return "daxpy@tiny@" + std::to_string(seed);
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::string bytes;
  char chunk[65536];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, got);
  }
  std::fclose(file);
  return bytes;
}

// ---------------------------------------------------------------------------
// Worker-plane chaos: the distributed dispatch path under random worker
// SIGKILL / SIGSTOP / net-fault incidents.
// ---------------------------------------------------------------------------

struct WorkerProc {
  pid_t pid = -1;
  int index = 0;
  bool chaotic = false;  // FTB_CHAOS armed on its sockets
};

/// Forks and execs one ftb_workerd aimed at `port`.  `chaos_spec` non-empty
/// arms the syscall-fault layer on the worker's network path, so its frames
/// arrive over short reads/EINTR storms.  Worker output is discarded: the
/// interesting signal is the dispatcher's audit, not worker chatter.
pid_t spawn_worker(const std::string& workerd, std::uint16_t port, int index,
                   const std::string& chaos_spec) {
  const pid_t pid = ::fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
      ::close(devnull);
    }
    if (chaos_spec.empty()) {
      ::unsetenv("FTB_CHAOS");
    } else {
      ::setenv("FTB_CHAOS", chaos_spec.c_str(), 1);
    }
    const std::string port_str = std::to_string(port);
    const std::string name = "chaos-w" + std::to_string(index);
    ::execl(workerd.c_str(), workerd.c_str(), "--port", port_str.c_str(),
            "--name", name.c_str(), "--capacity", "1", "--pool-workers", "2",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

void kill_worker(WorkerProc& worker) {
  if (worker.pid <= 0) return;
  ::kill(worker.pid, SIGKILL);
  ::waitpid(worker.pid, nullptr, 0);
  worker.pid = -1;
}

/// Submits one daxpy@tiny campaign over a fresh connection (so the ack is
/// the first frame back, not buried in other jobs' progress stream) and
/// returns the acked job id.  The connection closing afterwards is fine:
/// jobs are ledger-tracked, not tied to their submitter's socket.
std::uint64_t submit_worker_job(const net::ClientOptions& copts,
                                std::uint64_t seed, std::uint64_t batch,
                                const Daemon* daemon) {
  net::Client client(copts);
  service::SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = seed;
  req.batch = batch;
  req.workers = 2;
  req.flush_every = 16;
  std::string error;
  if (!client.connect(&error) ||
      !client.send(service::make_submit_campaign(req), &error)) {
    fail(daemon, "worker phase: submit seed %llu failed: %s",
         static_cast<unsigned long long>(seed), error.c_str());
  }
  for (int hops = 0; hops < 64; ++hops) {
    const auto reply = client.recv(&error, 15000);
    if (!reply.has_value()) {
      fail(daemon, "worker phase: no ack for seed %llu: %s",
           static_cast<unsigned long long>(seed), error.c_str());
    }
    switch (static_cast<service::MsgType>(reply->type)) {
      case service::MsgType::kCampaignAccepted: {
        const auto accepted = service::parse_campaign_accepted(*reply);
        if (!accepted.has_value()) {
          fail(daemon, "worker phase: malformed CampaignAccepted");
        }
        return accepted->job;
      }
      case service::MsgType::kCampaignProgress:
      case service::MsgType::kCampaignDone:
        break;  // earlier job's stream traffic
      default:
        fail(daemon, "worker phase: unexpected reply type %u to submit",
             reply->type);
    }
  }
  fail(daemon, "worker phase: ack for seed %llu never arrived",
       static_cast<unsigned long long>(seed));
}

/// One long-lived daemon, `workers` remote ftb_workerd processes, and at
/// least `incidents` random SIGKILL / SIGSTOP+SIGCONT / net-fault strikes
/// against them while campaigns run.  Afterwards every acked job must be
/// terminal-done, every journal must hold exactly its batch of unique
/// records, and both the journal and the published boundary must be
/// byte-identical to a local-only run of the same seed.
void run_worker_chaos(const std::string& served, const std::string& workerd,
                      const std::string& store_dir, int workers, int incidents,
                      std::uint64_t batch, std::uint64_t seed) {
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  std::mt19937_64 rng(seed * 7919 + 17);

  // Short lease so a SIGSTOPped worker forfeits its chunks within one
  // incident's dwell time; modest straggler timeout so degraded (net-fault)
  // workers get speculatively second-sourced.
  auto spawned = spawn_daemon(served, store_dir, /*chaos_spec=*/{},
                              {"--lease-timeout-ms", "700",
                               "--straggler-ms", "6000"});
  if (!spawned.has_value()) {
    fail(nullptr, "worker phase: daemon failed to start listening");
  }
  Daemon daemon = *spawned;

  const auto chaos_spec_for = [&](int index) {
    return "seed=" + std::to_string(seed + 100 + index) +
           ",short_io=0.08,eintr=0.05";
  };
  std::vector<WorkerProc> fleet;
  for (int i = 0; i < workers; ++i) {
    WorkerProc worker;
    worker.index = i;
    worker.chaotic = (i % 2) == 1;  // half the fleet starts degraded
    worker.pid = spawn_worker(workerd, daemon.port, i,
                              worker.chaotic ? chaos_spec_for(i) : "");
    if (worker.pid < 0) fail(&daemon, "worker phase: cannot spawn worker %d", i);
    fleet.push_back(worker);
  }

  net::ClientOptions copts;
  copts.port = daemon.port;
  copts.recv_timeout_ms = 15000;
  net::Client stats_client(copts);

  const auto completed_and_failed = [&]() -> std::pair<std::uint64_t, std::uint64_t> {
    std::string error;
    const auto stats = stats_client.call(service::make_stats(), &error);
    if (!stats.has_value()) return {0, 0};
    const auto ok = service::parse_stats_ok(*stats);
    if (!ok.has_value()) return {0, 0};
    return {json_counter(ok->metrics_json, "jobs.completed").value_or(0),
            json_counter(ok->metrics_json, "jobs.failed").value_or(0)};
  };

  std::vector<std::uint64_t> seeds;
  std::set<std::uint64_t> acked_jobs;
  std::uint64_t next_seed = 1;
  int struck = 0, kills = 0, stops = 0, net_faults = 0;
  while (struck < incidents) {
    // Keep a few campaigns in flight so every strike lands mid-job.
    const auto [completed, failed] = completed_and_failed();
    if (failed > 0) {
      fail(&daemon, "worker phase: %llu jobs failed under worker chaos",
           static_cast<unsigned long long>(failed));
    }
    while (seeds.size() < completed + 3) {
      acked_jobs.insert(submit_worker_job(copts, next_seed, batch, &daemon));
      seeds.push_back(next_seed);
      ++next_seed;
    }

    WorkerProc& victim = fleet[rng() % fleet.size()];
    switch (rng() % 3) {
      case 0: {  // SIGKILL mid-lease, clean respawn
        kill_worker(victim);
        victim.chaotic = false;
        victim.pid = spawn_worker(workerd, daemon.port, victim.index, "");
        ++kills;
        break;
      }
      case 1: {  // SIGSTOP past the lease TTL, then SIGCONT
        ::kill(victim.pid, SIGSTOP);
        ::usleep(1100 * 1000);  // > --lease-timeout-ms 700
        ::kill(victim.pid, SIGCONT);
        ++stops;
        break;
      }
      default: {  // sever the socket and come back with a degraded network
        kill_worker(victim);
        victim.chaotic = true;
        victim.pid =
            spawn_worker(workerd, daemon.port, victim.index,
                         chaos_spec_for(victim.index + struck * 100));
        ++net_faults;
        break;
      }
    }
    if (victim.pid < 0) {
      fail(&daemon, "worker phase: cannot respawn worker %d", victim.index);
    }
    ++struck;
    ::usleep(static_cast<useconds_t>((120 + rng() % 280) * 1000));
  }

  // Every submitted campaign must finish despite the strikes.
  bool drained = false;
  for (int waited_ms = 0; waited_ms < 300000; waited_ms += 250) {
    const auto [completed, failed] = completed_and_failed();
    if (failed > 0) {
      fail(&daemon, "worker phase: %llu jobs failed during drain",
           static_cast<unsigned long long>(failed));
    }
    if (completed >= seeds.size()) {
      drained = true;
      break;
    }
    ::usleep(250 * 1000);
  }
  if (!drained) {
    fail(&daemon, "worker phase: %zu jobs did not finish in time",
         seeds.size());
  }

  for (WorkerProc& worker : fleet) kill_worker(worker);
  if (!stop_graceful(daemon)) {
    fail(nullptr, "worker phase: daemon did not drain cleanly on SIGTERM");
  }

  // Audit 1: the ledger agrees nothing acked was lost.
  const auto replay =
      service::JobLedger::replay_file(store_dir + "/jobs.ledger");
  if (!replay.pending.empty()) {
    fail(nullptr, "worker phase: %zu jobs still pending after drain",
         replay.pending.size());
  }
  std::set<std::uint64_t> done_jobs;
  for (const auto& job : replay.terminal_jobs) {
    if (job.state != service::JobState::kDone) {
      fail(nullptr, "worker phase: job %llu ended %s (%s)",
           static_cast<unsigned long long>(job.id),
           service::to_string(job.state), job.note.c_str());
    }
    done_jobs.insert(job.id);
  }
  for (const std::uint64_t id : acked_jobs) {
    if (done_jobs.count(id) == 0) {
      fail(nullptr, "worker phase: acked job %llu lost",
           static_cast<unsigned long long>(id));
    }
  }
  audit_store_files(store_dir, nullptr);

  // Audit 2: every journal holds exactly its batch, once each, and both
  // journal and boundary bytes match a local-only run of the same seed.
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  for (const std::uint64_t job_seed : seeds) {
    const std::string key = key_for_seed(job_seed);
    const auto journal_bytes = read_file(store_dir + "/" + key + ".clog");
    if (!journal_bytes.has_value()) {
      fail(nullptr, "worker phase: journal for %s missing", key.c_str());
    }
    util::Rng sample_rng(job_seed);
    const auto ids =
        campaign::sample_uniform(sample_rng, golden.sample_space_size(), batch);
    campaign::CheckpointOptions local;
    local.path = store_dir + "/worker_reference.clog";
    local.flush_every = 16;
    const auto reference =
        campaign::run_campaign_checkpointed(*program, golden, ids, local);
    fs::remove(local.path);
    std::set<std::uint64_t> unique_ids;
    for (const auto& record : reference.log.records()) {
      unique_ids.insert(record.id);
    }
    const auto distributed =
        campaign::CampaignLog::load(store_dir + "/" + key + ".clog");
    if (!distributed.has_value()) {
      fail(nullptr, "worker phase: journal for %s unreadable", key.c_str());
    }
    std::set<std::uint64_t> seen;
    for (const auto& record : distributed->records()) {
      if (!seen.insert(record.id).second) {
        fail(nullptr, "worker phase: duplicate record %llu in %s",
             static_cast<unsigned long long>(record.id), key.c_str());
      }
    }
    if (seen != unique_ids) {
      fail(nullptr, "worker phase: %s record set diverged from local run",
           key.c_str());
    }
    if (*journal_bytes != reference.log.serialize()) {
      fail(nullptr, "worker phase: %s journal bytes diverged from local run",
           key.c_str());
    }
    const auto boundary_bytes = read_file(store_dir + "/" + key + ".boundary");
    if (!boundary_bytes.has_value()) {
      fail(nullptr, "worker phase: boundary for %s missing", key.c_str());
    }
    const boundary::FaultToleranceBoundary built = campaign::boundary_from_log(
        *program, golden, reference.log, {true}, util::default_pool());
    if (*boundary_bytes !=
        boundary::serialize(built, program->config_key())) {
      fail(nullptr, "worker phase: %s boundary bytes diverged from local run",
           key.c_str());
    }
  }

  std::printf(
      "worker chaos: %d incidents (%d SIGKILL, %d SIGSTOP, %d net-fault) "
      "across %d workers; %zu jobs done, 0 lost, 0 duplicate records, "
      "journals and boundaries byte-identical to local runs\n",
      struck, kills, stops, net_faults, workers, seeds.size());
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  cli.describe("served", "path to the ftb_served binary (default ./ftb_served)");
  cli.describe("kills", "SIGKILL rounds to run (default 50)");
  cli.describe("seed", "harness RNG seed (default 1)");
  cli.describe("store-dir",
               "store directory, wiped at start (default chaos_store)");
  cli.describe("keys", "distinct campaign seeds to cycle through (default 6)");
  cli.describe("batch", "experiments per campaign job (default 400)");
  cli.describe("max-delay-ms",
               "max random delay between submit and SIGKILL (default 400)");
  cli.describe("workers",
               "remote ftb_workerd processes for the worker-chaos phase "
               "(default 0 = skip the phase)");
  cli.describe("workerd",
               "path to the ftb_workerd binary (default ./ftb_workerd)");
  cli.describe("worker-incidents",
               "random SIGKILL/SIGSTOP/net-fault strikes against workers "
               "(default 20)");
  cli.describe("worker-batch",
               "experiments per campaign in the worker phase (default 400)");
  if (cli.get_bool("help")) {
    cli.print_help("chaos_served: kill/recover harness for ftb_served");
    return 0;
  }
  if (!net::net_supported()) {
    std::fprintf(stderr, "skipped: this platform has no socket support\n");
    return 0;
  }

  const std::string served = cli.get("served", "./ftb_served");
  const int kills = static_cast<int>(cli.get_int("kills", 50));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const std::string store_dir = cli.get("store-dir", "chaos_store");
  const std::uint64_t keys = static_cast<std::uint64_t>(cli.get_int("keys", 6));
  const std::uint64_t batch =
      static_cast<std::uint64_t>(cli.get_int("batch", 400));
  const std::uint64_t max_delay_ms =
      static_cast<std::uint64_t>(cli.get_int("max-delay-ms", 400));
  const int workers = static_cast<int>(cli.get_int("workers", 0));
  const std::string workerd = cli.get("workerd", "./ftb_workerd");
  const int worker_incidents =
      static_cast<int>(cli.get_int("worker-incidents", 20));
  const std::uint64_t worker_batch =
      static_cast<std::uint64_t>(cli.get_int("worker-batch", 400));

  std::signal(SIGPIPE, SIG_IGN);
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  const std::string ledger_path = store_dir + "/jobs.ledger";

  std::mt19937_64 rng(seed);
  std::set<std::string> acked_keys;        // every key the server said yes to
  std::set<std::uint64_t> prev_pending;    // ledger backlog entering the round
  std::uint64_t submit_counter = 0;
  std::uint64_t total_acked = 0, total_busy = 0, total_lost_submits = 0;

  for (int round = 0; round < kills; ++round) {
    // Three in four rounds run with network faults injected; the rest are
    // clean so recovery also gets exercised without interference.
    std::string chaos_spec;
    if (round % 4 != 3) {
      chaos_spec = "seed=" + std::to_string(seed + round) +
                   ",short_io=0.25,eintr=0.15";
    }
    auto spawned = spawn_daemon(served, store_dir, chaos_spec);
    if (!spawned.has_value()) {
      fail(nullptr, "round %d: daemon failed to start listening", round);
    }
    Daemon daemon = *spawned;

    // Submit one or two jobs, recording only what the server actually acked.
    std::set<std::uint64_t> acked_this_round;
    const int submissions = 1 + static_cast<int>(rng() % 2);
    {
      net::ClientOptions copts;
      copts.port = daemon.port;
      copts.recv_timeout_ms = 15000;
      net::Client client(copts);
      for (int j = 0; j < submissions; ++j) {
        service::SubmitCampaignReq req;
        req.kernel = "daxpy";
        req.preset = "tiny";
        req.seed = 1 + (submit_counter % keys);
        req.batch = batch;
        req.workers = 1;
        req.flush_every = 16;
        ++submit_counter;
        std::string error;
        if (!client.connect(&error) ||
            !client.send(service::make_submit_campaign(req), &error)) {
          ++total_lost_submits;
          break;
        }
        // The campaign stream interleaves progress frames from earlier jobs
        // on this connection; skip them until this submit's verdict.
        bool answered = false;
        for (int hops = 0; hops < 64 && !answered; ++hops) {
          const auto reply = client.recv(&error, 15000);
          if (!reply.has_value()) {
            ++total_lost_submits;
            break;
          }
          switch (static_cast<service::MsgType>(reply->type)) {
            case service::MsgType::kCampaignAccepted: {
              const auto accepted = service::parse_campaign_accepted(*reply);
              if (!accepted.has_value()) {
                fail(&daemon, "round %d: malformed CampaignAccepted", round);
              }
              acked_this_round.insert(accepted->job);
              acked_keys.insert(key_for_seed(req.seed));
              ++total_acked;
              answered = true;
              break;
            }
            case service::MsgType::kBusy:
              ++total_busy;
              answered = true;
              break;
            case service::MsgType::kError: {
              const auto err = service::parse_error(*reply);
              fail(&daemon, "round %d: submission rejected: %s", round,
                   err.has_value() ? err->message.c_str() : "unparseable");
            }
            case service::MsgType::kCampaignProgress:
            case service::MsgType::kCampaignDone:
              break;  // stream traffic from a previous job; keep reading
            default:
              fail(&daemon, "round %d: unexpected reply type %u", round,
                   reply->type);
          }
        }
        if (!answered) break;
      }
    }

    if (max_delay_ms > 0) {
      ::usleep(static_cast<useconds_t>((rng() % max_delay_ms) * 1000));
    }
    kill_hard(daemon);

    // Post-mortem: nothing acked may be lost, nothing torn may parse.
    audit_store_files(store_dir, nullptr);
    const auto replay = service::JobLedger::replay_file(ledger_path);
    std::set<std::uint64_t> present;
    for (const auto& job : replay.pending) present.insert(job.id);
    for (const auto& job : replay.terminal_jobs) present.insert(job.id);
    for (const std::uint64_t id : acked_this_round) {
      if (present.count(id) == 0) {
        fail(nullptr, "round %d: acked job %llu missing from the ledger",
             round, static_cast<unsigned long long>(id));
      }
    }
    for (const std::uint64_t id : prev_pending) {
      if (present.count(id) == 0) {
        fail(nullptr,
             "round %d: previously pending job %llu vanished from the ledger",
             round, static_cast<unsigned long long>(id));
      }
    }
    prev_pending.clear();
    for (const auto& job : replay.pending) prev_pending.insert(job.id);
    std::fprintf(stderr,
                 "round %d/%d: %s, %zu acked, %zu pending after kill\n",
                 round + 1, kills, chaos_spec.empty() ? "clean" : "chaotic",
                 acked_this_round.size(), prev_pending.size());
  }

  // Final clean incarnation: every interrupted job resumes and finishes,
  // every acked key becomes queryable, and a graceful drain empties the
  // backlog.
  const std::size_t backlog = prev_pending.size();
  auto spawned = spawn_daemon(served, store_dir, /*chaos_spec=*/{});
  if (!spawned.has_value()) {
    fail(nullptr, "recovery daemon failed to start listening");
  }
  Daemon daemon = *spawned;
  {
    net::ClientOptions copts;
    copts.port = daemon.port;
    copts.recv_timeout_ms = 15000;
    net::Client client(copts);
    std::string error;
    bool recovered = false;
    for (int waited_ms = 0; waited_ms < 300000; waited_ms += 250) {
      const auto stats = client.call(service::make_stats(), &error);
      if (stats.has_value()) {
        if (const auto ok = service::parse_stats_ok(*stats)) {
          const std::uint64_t completed =
              json_counter(ok->metrics_json, "jobs.completed").value_or(0);
          const std::uint64_t failed =
              json_counter(ok->metrics_json, "jobs.failed").value_or(0);
          if (failed > 0) {
            fail(&daemon, "recovery: %llu resumed jobs failed",
                 static_cast<unsigned long long>(failed));
          }
          if (completed >= backlog) {
            recovered = true;
            break;
          }
        }
      }
      ::usleep(250 * 1000);
    }
    if (!recovered) {
      fail(&daemon, "recovery: %zu interrupted jobs did not finish in time",
           backlog);
    }
    const auto listing = client.call(service::make_list_boundaries(), &error);
    if (!listing.has_value()) {
      fail(&daemon, "recovery: list failed: %s", error.c_str());
    }
    const auto entries = service::parse_boundary_list_ok(*listing);
    if (!entries.has_value()) {
      fail(&daemon, "recovery: malformed boundary list");
    }
    std::set<std::string> published;
    for (const auto& info : entries->entries) published.insert(info.key);
    for (const std::string& key : acked_keys) {
      if (published.count(key) == 0) {
        fail(&daemon, "recovery: acked key %s was never published",
             key.c_str());
      }
    }
  }
  if (!stop_graceful(daemon)) {
    fail(nullptr, "recovery daemon did not drain cleanly on SIGTERM");
  }
  const auto final_replay = service::JobLedger::replay_file(ledger_path);
  if (!final_replay.pending.empty()) {
    fail(nullptr, "after the final drain, %zu jobs are still pending",
         final_replay.pending.size());
  }
  for (const auto& job : final_replay.terminal_jobs) {
    if (job.state != service::JobState::kDone) {
      fail(nullptr, "job %llu ended %s (%s)",
           static_cast<unsigned long long>(job.id),
           service::to_string(job.state), job.note.c_str());
    }
  }

  // Byte-identity: the seed-1 journal, finished across however many
  // kill/resume cycles it lived through, must equal an uninterrupted
  // reference campaign -- the same check the drain test makes in-process.
  const std::string journal = store_dir + "/" + key_for_seed(1) + ".clog";
  if (fs::exists(journal)) {
    const fi::ProgramPtr program =
        kernels::make_program("daxpy", kernels::Preset::kTiny);
    const fi::GoldenRun golden = fi::run_golden(*program);
    util::Rng sample_rng(1);
    const auto ids =
        campaign::sample_uniform(sample_rng, golden.sample_space_size(), batch);
    campaign::CheckpointOptions resume;
    resume.path = journal;
    resume.flush_every = 16;
    const auto resumed =
        campaign::run_campaign_checkpointed(*program, golden, ids, resume);
    campaign::CheckpointOptions fresh;
    fresh.path = store_dir + "/chaos_reference.clog";
    fresh.flush_every = 16;
    const auto reference =
        campaign::run_campaign_checkpointed(*program, golden, ids, fresh);
    if (resumed.log.serialize() != reference.log.serialize()) {
      fail(nullptr, "resumed journal %s diverged from the reference bytes",
           journal.c_str());
    }
    fs::remove(fresh.path);
  }

  std::printf(
      "chaos_served: %d kills survived; %llu acked (%llu busy, %llu lost "
      "submits), %zu keys published, backlog drained, journal byte-identical\n",
      kills, static_cast<unsigned long long>(total_acked),
      static_cast<unsigned long long>(total_busy),
      static_cast<unsigned long long>(total_lost_submits), acked_keys.size());

  // Distributed phase: the same invariants with the campaign plane fanned
  // out to remote workers under fire.
  if (workers > 0) {
    run_worker_chaos(served, workerd, store_dir + "/workers", workers,
                     worker_incidents, worker_batch, seed);
  }
  return 0;
}
