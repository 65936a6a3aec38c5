// Tests for the resilient campaign supervisor (campaign/supervisor.h) and
// the persistent worker pool underneath it (fi/sandbox.h WorkerPool):
// baseline equivalence, quarantine-after-exactly-K with the kill's own
// classification, external worker kills and stops (innocent experiments
// retried, nothing lost or duplicated), graceful degradation to in-process
// execution, journals that do not depend on the backend, and byte-identical
// checkpoint resume after the supervisor itself is SIGKILLed.  Lethal flips
// are expected to record the signal they die of (SIGSEGV, SIGFPE), or the
// abnormal exit a sanitizer turns it into (signal_death.h).
#include "campaign/supervisor.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "fi/executor.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "signal_death.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::campaign {
namespace {

using test_support::signal_death;

void expect_records_match(std::span<const ExperimentRecord> actual,
                          std::span<const ExperimentRecord> expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id) << i;
    EXPECT_EQ(actual[i].result.outcome, expected[i].result.outcome) << i;
    EXPECT_EQ(actual[i].result.crash_reason, expected[i].result.crash_reason)
        << i;
    EXPECT_DOUBLE_EQ(actual[i].result.injected_error,
                     expected[i].result.injected_error)
        << i;
    EXPECT_DOUBLE_EQ(actual[i].result.output_error,
                     expected[i].result.output_error)
        << i;
  }
}

TEST(Supervisor, MatchesBaselineOnWellBehavedKernel) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(33);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 80);

  util::ThreadPool pool(2);
  const std::vector<ExperimentRecord> baseline =
      run_experiments(*program, golden, ids, pool);

  SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 8;
  CampaignSupervisor supervisor(*program, golden, options);
  EXPECT_EQ(supervisor.pool().worker_count(), 4);
  const std::vector<ExperimentRecord> supervised = supervisor.run(ids);

  expect_records_match(supervised, baseline);
  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.worker_deaths, 0u);
  EXPECT_EQ(stats.worker_hangs, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.fallback_experiments, 0u);
  EXPECT_EQ(stats.pool.workers_spawned, 4u);
  EXPECT_GE(stats.chunks_dispatched, ids.size() / options.chunk_size);
}

TEST(Supervisor, RunIsRepeatableAcrossCalls) {
  // The pool and ledger persist across run() calls; a second batch over the
  // same supervisor must behave like the first.
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(34);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 24);

  SupervisorOptions options;
  options.pool.workers = 2;
  CampaignSupervisor supervisor(*program, golden, options);
  const std::vector<ExperimentRecord> first = supervisor.run(ids);
  const std::vector<ExperimentRecord> second = supervisor.run(ids);
  expect_records_match(second, first);
  // Workers were forked once, not once per run().
  EXPECT_EQ(supervisor.stats().pool.workers_spawned, 2u);
}

TEST(Supervisor, QuarantinesLethalSiteAfterExactlyKAttempts) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[program.offset_site(1)], 5.0);

  const std::vector<ExperimentId> ids = {
      encode(0, 1),                        // benign
      encode(program.offset_site(1), 61),  // SIGSEGV every attempt
      encode(1, 2),                        // benign
  };
  SupervisorOptions options;
  options.pool.workers = 2;
  options.chunk_size = 4;
  options.quarantine_after = 3;
  CampaignSupervisor supervisor(program, golden, options);
  const std::vector<ExperimentRecord> records = supervisor.run(ids);

  ASSERT_EQ(records.size(), 3u);
  // The lethal flip burned exactly K workers, then was recorded with the
  // classification of its kills, as a snapshot child's death would be.
  EXPECT_EQ(supervisor.kill_count(ids[1]), 3);
  EXPECT_EQ(records[1].result.outcome, fi::Outcome::kCrash);
  EXPECT_EQ(records[1].result.crash_reason,
            signal_death(fi::CrashReason::kSigSegv));
  EXPECT_EQ(records[1].result.injected_error,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(records[1].result.output_error,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(records[1].result.crash_site, 0u);
  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.worker_deaths, 3u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.pool.respawns, 3u);
  // The benign neighbours are unaffected: identical to in-process runs.
  for (const std::size_t i : {std::size_t{0}, std::size_t{2}}) {
    const fi::ExperimentResult direct =
        fi::run_injected(program, golden, injection_of(ids[i]));
    EXPECT_EQ(records[i].result.outcome, direct.outcome) << i;
    EXPECT_DOUBLE_EQ(records[i].result.output_error, direct.output_error)
        << i;
  }
  // A later run() call skips the quarantined experiment at dispatch time
  // without burning any more workers.
  const std::vector<ExperimentRecord> again = supervisor.run(ids);
  EXPECT_EQ(again[1].result.outcome, fi::Outcome::kCrash);
  EXPECT_EQ(again[1].result.crash_reason,
            signal_death(fi::CrashReason::kSigSegv));
  EXPECT_EQ(supervisor.stats().worker_deaths, 3u);
  EXPECT_EQ(supervisor.kill_count(ids[1]), 3);
}

TEST(Supervisor, HeartbeatStallQuarantinesHangingExperiment) {
  const kernels::HazardSpinProgram program{kernels::HazardSpinConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[kernels::HazardSpinProgram::kDecaySite], 0.5);

  const std::vector<ExperimentId> ids = {
      encode(kernels::HazardSpinProgram::kDecaySite, 52),  // spins forever
      encode(0, 0),                                        // benign
  };
  SupervisorOptions options;
  options.pool.workers = 2;
  options.pool.heartbeat_timeout_ms = 200;
  options.quarantine_after = 2;  // prove the hang is retried once, too
  CampaignSupervisor supervisor(program, golden, options);
  const std::vector<ExperimentRecord> records = supervisor.run(ids);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].result.outcome, fi::Outcome::kHang);
  EXPECT_EQ(records[0].result.crash_reason, fi::CrashReason::kNone);
  EXPECT_NE(records[1].result.outcome, fi::Outcome::kHang);
  EXPECT_FALSE(fi::is_isolation_reason(records[1].result.crash_reason));
  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.worker_hangs, 2u);  // exactly K heartbeat stalls
  EXPECT_EQ(stats.pool.hang_kills, 2u);
  EXPECT_EQ(stats.quarantined, 1u);
}

TEST(Supervisor, SurvivesExternalWorkerKillsWithoutLosingRecords) {
  // kill -9 workers while the campaign runs: every in-flight experiment is
  // innocent, gets retried, and the final records match the baseline --
  // nothing lost, nothing duplicated.
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(35);
  const std::vector<ExperimentId> ids = sample_uniform(
      rng, golden.sample_space_size(),
      std::min<std::uint64_t>(golden.sample_space_size(), 3000));

  util::ThreadPool pool(2);
  const std::vector<ExperimentRecord> baseline =
      run_experiments(*program, golden, ids, pool);

  SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 4;
  CampaignSupervisor supervisor(*program, golden, options);

  std::atomic<bool> done{false};
  std::thread killer([&] {
    for (int round = 0; round < 10 && !done.load(); ++round) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      const std::int64_t pid = supervisor.pool().worker_pid(round % 4);
      if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
    }
  });
  const std::vector<ExperimentRecord> supervised = supervisor.run(ids);
  done.store(true);
  killer.join();

  expect_records_match(supervised, baseline);
  // No experiment was blamed hard enough to be quarantined.
  EXPECT_EQ(supervisor.stats().quarantined, 0u);
}

TEST(Supervisor, StoppedWorkerIsKilledAsHangAndExperimentRetried) {
  // SIGSTOP freezes a worker without killing it: the heartbeat stalls, the
  // supervisor SIGKILLs it, and the innocent in-flight experiment is
  // requeued -- outcomes still match the baseline exactly.
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(36);
  const std::vector<ExperimentId> ids = sample_uniform(
      rng, golden.sample_space_size(),
      std::min<std::uint64_t>(golden.sample_space_size(), 3000));

  util::ThreadPool pool(2);
  const std::vector<ExperimentRecord> baseline =
      run_experiments(*program, golden, ids, pool);

  SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 4;
  options.pool.heartbeat_timeout_ms = 100;
  CampaignSupervisor supervisor(*program, golden, options);

  std::atomic<bool> done{false};
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    for (int w = 0; w < 2 && !done.load(); ++w) {
      const std::int64_t pid = supervisor.pool().worker_pid(w);
      if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGSTOP);
    }
  });
  const std::vector<ExperimentRecord> supervised = supervisor.run(ids);
  done.store(true);
  stopper.join();

  expect_records_match(supervised, baseline);
  EXPECT_EQ(supervisor.stats().quarantined, 0u);
}

TEST(Supervisor, ShrinksToFewerWorkersUnderSpawnFailures) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(37);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 40);

  util::ThreadPool pool(2);
  const std::vector<ExperimentRecord> baseline =
      run_experiments(*program, golden, ids, pool);

  SupervisorOptions options;
  options.pool.workers = 4;
  options.pool.spawn_retry.max_retries = 0;  // one attempt per slot
  options.pool.simulate_spawn_failures = 3;  // first three forks "fail"
  CampaignSupervisor supervisor(*program, golden, options);
  EXPECT_EQ(supervisor.pool().worker_count(), 1);

  const std::vector<ExperimentRecord> supervised = supervisor.run(ids);
  expect_records_match(supervised, baseline);
  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.pool.shrinks, 3u);
  EXPECT_EQ(stats.fallback_experiments, 0u);  // one worker carried it all
}

TEST(Supervisor, FallsBackInProcessWhenNoWorkerCanSpawn) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(38);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 30);

  util::ThreadPool pool(2);
  const std::vector<ExperimentRecord> baseline =
      run_experiments(*program, golden, ids, pool);

  SupervisorOptions options;
  options.pool.workers = 2;
  options.pool.spawn_retry.max_retries = 0;
  options.pool.simulate_spawn_failures = 1000;  // every fork "fails"
  CampaignSupervisor supervisor(*program, golden, options);
  EXPECT_EQ(supervisor.pool().worker_count(), 0);

  const std::vector<ExperimentRecord> supervised = supervisor.run(ids);
  expect_records_match(supervised, baseline);
  const SupervisorStats stats = supervisor.stats();
  EXPECT_EQ(stats.fallback_experiments, ids.size());
  EXPECT_EQ(stats.pool.shrinks, 2u);
}

TEST(Supervisor, FallbackDisabledThrowsInsteadOfRunningInProcess) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  const std::vector<ExperimentId> ids = {encode(0, 1)};

  SupervisorOptions options;
  options.pool.workers = 1;
  options.pool.spawn_retry.max_retries = 0;
  options.pool.simulate_spawn_failures = 1000;
  options.allow_in_process_fallback = false;
  CampaignSupervisor supervisor(*program, golden, options);
  EXPECT_THROW(supervisor.run(ids), std::runtime_error);
}

TEST(Supervisor, FallbackNeverRunsKnownWorkerKillersInProcess) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  const std::vector<ExperimentId> ids = {
      encode(program.offset_site(1), 61),  // SIGSEGV: kills the only worker
      encode(0, 1),                        // benign
  };
  SupervisorOptions options;
  options.pool.workers = 1;
  options.pool.spawn_retry.max_retries = 0;
  // Initial spawn succeeds; the respawn after the first death fails via
  // the respawn-only seam and the pool shrinks to zero.
  options.pool.simulate_respawn_failures = 1;
  options.quarantine_after = 5;  // threshold NOT reached by the single kill
  CampaignSupervisor supervisor(program, golden, options);
  ASSERT_EQ(supervisor.pool().worker_count(), 1);

  const std::vector<ExperimentRecord> records = supervisor.run(ids);
  ASSERT_EQ(records.size(), 2u);
  // The fallback recorded the killer with its ledger classification
  // (1 kill, SIGSEGV) instead of running it in this process -- otherwise
  // this test binary would be dead.
  EXPECT_EQ(records[0].result.outcome, fi::Outcome::kCrash);
  EXPECT_EQ(records[0].result.crash_reason,
            signal_death(fi::CrashReason::kSigSegv));
  EXPECT_EQ(supervisor.kill_count(ids[0]), 1);
  const fi::ExperimentResult direct =
      fi::run_injected(program, golden, injection_of(ids[1]));
  EXPECT_EQ(records[1].result.outcome, direct.outcome);
  EXPECT_EQ(supervisor.stats().fallback_experiments, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint integration
// ---------------------------------------------------------------------------

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct TempPath {
  std::string path;
  explicit TempPath(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              (name + std::to_string(::getpid()) + ".clog"))
                 .string()) {
    std::filesystem::remove(path);
  }
  ~TempPath() { std::filesystem::remove(path); }
};

TEST(SupervisorCheckpoint, JournalMatchesThreadPoolJournalByteForByte) {
  const fi::ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(40);
  const std::vector<ExperimentId> ids =
      sample_uniform(rng, golden.sample_space_size(), 60);

  TempPath supervised_path("ftb_sup_journal_");
  TempPath baseline_path("ftb_base_journal_");

  CheckpointOptions supervised;
  supervised.path = supervised_path.path;
  supervised.flush_every = 16;
  supervised.use_supervisor = true;
  supervised.supervisor.pool.workers = 3;
  const CheckpointRunResult a =
      run_campaign_checkpointed(*program, golden, ids, supervised);

  CheckpointOptions baseline;
  baseline.path = baseline_path.path;
  baseline.flush_every = 16;
  const CheckpointRunResult b =
      run_campaign_checkpointed(*program, golden, ids, baseline);

  EXPECT_EQ(a.log.serialize(), b.log.serialize());
  EXPECT_EQ(read_file_bytes(supervised_path.path),
            read_file_bytes(baseline_path.path));
  EXPECT_EQ(a.supervisor_stats.fallback_experiments, 0u);
}

TEST(SupervisorCheckpoint, JournalIsByteIdenticalAcrossBackends) {
  // A lethal flip is recorded the same way whichever backend isolates it:
  // the plain pool (where the supervisor's kill ledger classifies it, at
  // any worker count) and the snapshot pool (where the holder classifies
  // the experiment child's death) write the same journal bytes.
  const kernels::HazardProgram hazard{kernels::HazardConfig{}};
  const kernels::HazardSpinProgram spin{kernels::HazardSpinConfig{}};
  struct Lethal {
    fi::Outcome outcome;
    fi::CrashReason reason;
  };
  struct Case {
    const fi::Program* program;
    std::vector<ExperimentId> ids;  // benign neighbours plus `lethal`
    std::map<ExperimentId, Lethal> lethal;
  };
  const ExperimentId segv = encode(hazard.offset_site(1), 61);
  const ExperimentId fpe = encode(hazard.divisor_site(0), 62);
  const ExperimentId spinning =
      encode(kernels::HazardSpinProgram::kDecaySite, 52);
  const std::vector<Case> cases = {
      {&hazard,
       {encode(0, 1), segv, encode(1, 2), fpe, encode(2, 3)},
       {{segv,
         {fi::Outcome::kCrash, signal_death(fi::CrashReason::kSigSegv)}},
        {fpe, {fi::Outcome::kCrash, signal_death(fi::CrashReason::kSigFpe)}}}},
      {&spin,
       {encode(0, 0), spinning, encode(1, 1)},
       {{spinning, {fi::Outcome::kHang, fi::CrashReason::kNone}}}},
  };

  for (std::size_t c = 0; c < cases.size(); ++c) {
    const fi::GoldenRun golden = fi::run_golden(*cases[c].program);
    std::vector<std::string> journals;
    for (const auto& [workers, snapshots] :
         {std::pair{1, false}, std::pair{2, false}, std::pair{2, true}}) {
      TempPath path("ftb_backend_journal_");
      CheckpointOptions options;
      options.path = path.path;
      options.flush_every = 2;
      options.use_supervisor = true;
      options.supervisor.pool.workers = workers;
      options.supervisor.pool.heartbeat_timeout_ms = 500;
      options.supervisor.pool.use_snapshots = snapshots;
      options.supervisor.pool.snapshot.interval = 16;
      options.supervisor.pool.snapshot.timeout_ms = 500;
      options.supervisor.quarantine_after = 2;
      const CheckpointRunResult run = run_campaign_checkpointed(
          *cases[c].program, golden, cases[c].ids, options);
      ASSERT_EQ(run.log.size(), cases[c].ids.size());
      for (const ExperimentRecord& record : run.log.records()) {
        const auto lethal = cases[c].lethal.find(record.id);
        if (lethal == cases[c].lethal.end()) {
          EXPECT_NE(record.result.outcome, fi::Outcome::kHang) << record.id;
          EXPECT_FALSE(fi::is_isolation_reason(record.result.crash_reason))
              << record.id;
        } else {
          EXPECT_EQ(record.result.outcome, lethal->second.outcome)
              << record.id;
          EXPECT_EQ(record.result.crash_reason, lethal->second.reason)
              << record.id;
        }
      }
      journals.push_back(read_file_bytes(path.path));
    }
    EXPECT_EQ(journals[0], journals[1]) << "pool at 1 vs 2 workers, case "
                                        << c;
    EXPECT_EQ(journals[0], journals[2]) << "pool vs snapshot pool, case "
                                        << c;
  }
}

TEST(SupervisorCheckpoint, ResumeAfterSupervisorSigkillIsByteIdentical) {
  // Kill the *supervisor process* mid-campaign with SIGKILL, resume from
  // the journal, and require the final journal to be byte-identical to an
  // undisturbed run.  Worker orphans are reaped by PR_SET_PDEATHSIG.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);

  std::vector<ExperimentId> ids;
  for (int bit : {1, 2, 3}) {
    for (std::uint64_t site = 0; site < 8; ++site) ids.push_back(encode(site, bit));
  }
  ids.push_back(encode(program.offset_site(1), 61));  // lethal SIGSEGV
  ids.push_back(encode(program.divisor_site(0), 62));  // lethal SIGFPE

  const auto run_checkpointed = [&](const std::string& path) {
    CheckpointOptions options;
    options.path = path;
    options.flush_every = 4;
    options.use_supervisor = true;
    options.supervisor.pool.workers = 2;
    options.supervisor.quarantine_after = 2;
    return run_campaign_checkpointed(program, golden, ids, options);
  };

  TempPath undisturbed_path("ftb_undisturbed_");
  run_checkpointed(undisturbed_path.path);

  TempPath killed_path("ftb_killed_");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: run the campaign; the parent SIGKILLs us mid-flight.
    try {
      run_checkpointed(killed_path.path);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }
  // Parent: wait for the first flush to land, then SIGKILL the child.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!std::filesystem::exists(killed_path.path) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);

  // Resume (possibly from nothing, if the kill landed before any flush)
  // and compare: the journal must converge to the undisturbed bytes.
  run_checkpointed(killed_path.path);
  EXPECT_EQ(read_file_bytes(killed_path.path),
            read_file_bytes(undisturbed_path.path));
}

}  // namespace
}  // namespace ftb::campaign
