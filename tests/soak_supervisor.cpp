// Soak / stress tests for the resilient campaign supervisor (selected with
// `ctest -L soak`, but bounded to a few seconds so the default run can
// afford them too).  The acceptance bar from the supervisor design: a
// campaign over the hazard kernels with >= 4 workers must survive at least
// ten induced worker deaths and at least two induced hangs with zero lost
// or duplicated records, and every record -- the lethal ones included --
// identical to an undisturbed supervised run.
#include "campaign/supervisor.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.h"
#include "campaign/sample_space.h"
#include "fi/executor.h"
#include "kernels/hazard.h"
#include "signal_death.h"

namespace ftb::campaign {
namespace {

using test_support::signal_death;

// The reaping contract (fi/sandbox.cpp): every heartbeat kill and external
// kill is followed by a blocking waitpid, so once a supervisor is destroyed
// this process must have no children left at all -- not running, and
// especially not zombies.  waitpid(-1, WNOHANG) distinguishes the cases:
// pid > 0 is an unreaped zombie, 0 is a live straggler, ECHILD is clean.
void expect_no_zombie_children() {
  int status = 0;
  pid_t pid = 0;
  while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
    ADD_FAILURE() << "leaked zombie child pid " << pid;
  }
  EXPECT_TRUE(pid == -1 && errno == ECHILD)
      << "children outlived the supervisor (waitpid returned " << pid << ")";
}

TEST(SoakSupervisor, SurvivesInducedDeathsAndHangsOnHazardKernel) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);
  ASSERT_DOUBLE_EQ(golden.trace[program.offset_site(1)], 5.0);
  ASSERT_DOUBLE_EQ(golden.trace[program.divisor_site(0)], 8.0);
  ASSERT_DOUBLE_EQ(golden.trace[program.trip_site(0)], 16.0);

  // ~40 benign experiments interleaved with two deterministic killers and
  // one deterministic hang.
  std::vector<ExperimentId> ids;
  for (int bit : {1, 2, 3, 4, 5}) {
    for (std::uint64_t site = 0; site < 8; ++site) {
      ids.push_back(encode(site, bit));
    }
  }
  const ExperimentId segv_id = encode(program.offset_site(1), 61);
  const ExperimentId fpe_id = encode(program.divisor_site(0), 62);
  const ExperimentId hang_id = encode(program.trip_site(0), 61);
  ids.insert(ids.begin() + 7, segv_id);
  ids.insert(ids.begin() + 19, fpe_id);
  ids.insert(ids.begin() + 31, hang_id);

  // Generous timeouts: under sanitizers every experiment runs several
  // times slower, and a benign experiment misclassified as a hang would
  // (correctly) show up as a baseline mismatch below.
  SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 4;
  options.pool.heartbeat_timeout_ms = 400;
  // Each killer burns six workers before quarantine: 12 deterministic
  // deaths from the two lethal flips, plus whatever the external killer
  // below adds.  The hang site stalls the heartbeat six times too.  K > 1
  // also lets a benign experiment that a loaded machine starves past the
  // heartbeat succeed on retry.
  options.quarantine_after = 6;

  // Baseline: the same campaign with no external kills.  The record of a
  // lethal flip does not depend on chaos, so it is compared like every
  // other record.
  std::vector<ExperimentRecord> baseline;
  {
    CampaignSupervisor undisturbed(program, golden, options);
    baseline = undisturbed.run(ids);
  }

  {  // scope: the supervisor must be destroyed before the zombie check
    CampaignSupervisor supervisor(program, golden, options);

    // External chaos on top: kill -9 a rotating worker a few times while the
    // campaign runs.  Every experiment in flight at those moments is
    // innocent and must be retried to its baseline outcome.
    std::atomic<bool> done{false};
    std::thread killer([&] {
      for (int round = 0; round < 6 && !done.load(); ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const std::int64_t pid = supervisor.pool().worker_pid(round % 4);
        if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
    });
    const std::vector<ExperimentRecord> records = supervisor.run(ids);
    done.store(true);
    killer.join();

    // Zero lost, zero duplicated: exactly one record per id, in order.
    ASSERT_EQ(records.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(records[i].id, ids[i]) << i;
    }

    const SupervisorStats stats = supervisor.stats();
    EXPECT_GE(stats.worker_deaths, 10u);  // >= 12 deterministic alone
    EXPECT_GE(stats.worker_hangs, 2u);
    EXPECT_EQ(stats.quarantined, 3u);  // segv, fpe, and the spin hang
    EXPECT_EQ(supervisor.kill_count(segv_id), options.quarantine_after);
    EXPECT_EQ(supervisor.kill_count(fpe_id), options.quarantine_after);
    EXPECT_EQ(supervisor.kill_count(hang_id), options.quarantine_after);

    // Every record identical to the undisturbed baseline, and the hazards
    // recorded as what they do: SIGSEGV, SIGFPE (signal_death.h), Hang.
    ASSERT_EQ(baseline.size(), records.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(records[i].result.outcome, baseline[i].result.outcome) << i;
      EXPECT_EQ(records[i].result.crash_reason,
                baseline[i].result.crash_reason)
          << i;
      EXPECT_DOUBLE_EQ(records[i].result.output_error,
                       baseline[i].result.output_error)
          << i;
      EXPECT_EQ(records[i].result.crash_site, baseline[i].result.crash_site)
          << i;
      if (ids[i] == segv_id) {
        EXPECT_EQ(records[i].result.crash_reason,
                  signal_death(fi::CrashReason::kSigSegv));
      } else if (ids[i] == fpe_id) {
        EXPECT_EQ(records[i].result.crash_reason,
                  signal_death(fi::CrashReason::kSigFpe));
      } else if (ids[i] == hang_id) {
        EXPECT_EQ(records[i].result.outcome, fi::Outcome::kHang);
      }
    }
  }
  expect_no_zombie_children();
}

TEST(SoakSupervisor, RepeatedRunsStayConsistentAcrossWorkerChurn) {
  // Hammer the same supervisor with several campaigns while its workers
  // keep dying: the ledger saturates in run 1 and later runs are stable.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);

  std::vector<ExperimentId> ids;
  for (std::uint64_t site = 0; site < 6; ++site) ids.push_back(encode(site, 2));
  ids.push_back(encode(program.offset_site(1), 61));  // SIGSEGV

  SupervisorOptions options;
  options.pool.workers = 4;
  options.chunk_size = 2;
  options.quarantine_after = 2;
  {  // scope: the supervisor must be destroyed before the zombie check
    CampaignSupervisor supervisor(program, golden, options);

    const std::vector<ExperimentRecord> first = supervisor.run(ids);
    const std::uint64_t deaths_after_first = supervisor.stats().worker_deaths;
    EXPECT_EQ(deaths_after_first, 2u);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const std::vector<ExperimentRecord> again = supervisor.run(ids);
      ASSERT_EQ(again.size(), first.size());
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(again[i].id, first[i].id);
        EXPECT_EQ(again[i].result.outcome, first[i].result.outcome) << i;
        EXPECT_EQ(again[i].result.crash_reason, first[i].result.crash_reason)
            << i;
      }
    }
    // The quarantine held: no additional workers died after the first run.
    EXPECT_EQ(supervisor.stats().worker_deaths, deaths_after_first);
  }
  expect_no_zombie_children();
}

TEST(SoakSupervisor, SnapshotModeSurvivesWorkerChurnWithoutZombies) {
  // The snapshot plane multiplies the process tree (worker -> runner ->
  // holders -> experiment children); kill -9ing workers mid-campaign must
  // still leave neither zombies nor stragglers behind, and the records must
  // match a classic supervised run exactly -- the lethal flip included,
  // which the holder classifies here and the kill ledger there.
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const fi::GoldenRun golden = fi::run_golden(program);

  std::vector<ExperimentId> ids;
  for (int bit : {1, 2, 3}) {
    for (std::uint64_t site = 0; site < 8; ++site) {
      ids.push_back(encode(site, bit));
    }
  }
  ids.insert(ids.begin() + 5, encode(program.divisor_site(0), 62));  // SIGFPE

  SupervisorOptions classic_options;
  classic_options.pool.workers = 2;
  classic_options.chunk_size = 4;
  classic_options.quarantine_after = 2;
  std::vector<ExperimentRecord> baseline;
  {
    CampaignSupervisor classic(program, golden, classic_options);
    baseline = classic.run(ids);
  }

  SupervisorOptions options = classic_options;
  options.pool.use_snapshots = true;
  options.pool.snapshot.interval = 64;
  {
    CampaignSupervisor supervisor(program, golden, options);
    std::atomic<bool> done{false};
    std::thread killer([&] {
      for (int round = 0; round < 4 && !done.load(); ++round) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        const std::int64_t pid = supervisor.pool().worker_pid(round % 2);
        if (pid > 0) ::kill(static_cast<pid_t>(pid), SIGKILL);
      }
    });
    const std::vector<ExperimentRecord> records = supervisor.run(ids);
    done.store(true);
    killer.join();

    ASSERT_EQ(records.size(), baseline.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(records[i].id, baseline[i].id) << i;
      if (records[i].result.crash_reason == fi::CrashReason::kOtherSignal) {
        // External SIGKILLs landed on this experiment's worker often enough
        // to use up its quota (K = 2): the ledger then holds that kill.
        continue;
      }
      EXPECT_EQ(records[i].result.outcome, baseline[i].result.outcome) << i;
      EXPECT_EQ(records[i].result.crash_reason,
                baseline[i].result.crash_reason)
          << i;
      EXPECT_DOUBLE_EQ(records[i].result.output_error,
                       baseline[i].result.output_error)
          << i;
    }
  }
  expect_no_zombie_children();
}

}  // namespace
}  // namespace ftb::campaign
