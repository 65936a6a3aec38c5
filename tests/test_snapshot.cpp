// Tests for the snapshot fork-server (fi/snapshot.h).
//
// Three concerns, mirroring the layer's promises:
//   * the control-channel codec rejects -- with a diagnostic, never a crash
//     -- every 1-byte corruption and every truncation of both frame types
//     (the net/frame.h fuzz discipline applied to the snapshot plane);
//   * served experiments are bit-identical to run_injected() on well-behaved
//     kernels, survive runner death via rebuild, degrade to the in-process
//     fallback when the rebuild budget is spent, and classify hostile flips
//     (signals, spins) through the same isolation_result() as the worker
//     pool;
//   * campaigns run through the worker pool / checkpoint layer with
//     use_snapshots leave byte-identical journals to the classic path,
//     including across an interrupt-and-resume cycle.
#include "fi/snapshot.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/sample_space.h"
#include "campaign/sampler.h"
#include "campaign/supervisor.h"
#include "fi/fpbits.h"
#include "kernels/cg.h"
#include "kernels/hazard.h"
#include "kernels/registry.h"
#include "util/cache.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ftb::fi {
namespace {

SnapshotCommand sample_command() {
  SnapshotCommand command;
  command.seq = 0x1122334455667788ull;
  command.injection = Injection::mem_xor(3, 17, 0x8000000000000001ull);
  command.injection.bit = 9;
  command.injection.operand = -0.751;
  return command;
}

SnapshotResponse sample_response() {
  SnapshotResponse response;
  response.type = SnapshotResponse::Type::kResult;
  response.seq = 0x99aabbccddeeff01ull;
  response.site = 12345;
  response.result.outcome = Outcome::kSdc;
  response.result.crash_reason = CrashReason::kNone;
  response.result.injected_error = 1.5e-3;
  response.result.output_error = 2.25e-6;
  response.result.crash_site = 777;
  response.result.detector_fired = true;
  return response;
}

TEST(SnapshotCodec, CommandRoundTrip) {
  const SnapshotCommand in = sample_command();
  std::uint8_t frame[kSnapshotCommandBytes];
  encode_snapshot_command(in, frame);

  SnapshotCommand out;
  std::string diagnostic;
  ASSERT_TRUE(decode_snapshot_command(frame, &out, &diagnostic)) << diagnostic;
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.injection.kind, in.injection.kind);
  EXPECT_EQ(out.injection.target, in.injection.target);
  EXPECT_EQ(out.injection.site, in.injection.site);
  EXPECT_EQ(out.injection.bit, in.injection.bit);
  EXPECT_EQ(out.injection.touch_point, in.injection.touch_point);
  EXPECT_EQ(to_bits(out.injection.operand), to_bits(in.injection.operand));
  EXPECT_EQ(out.injection.mask, in.injection.mask);
}

TEST(SnapshotCodec, ResponseRoundTrip) {
  const SnapshotResponse in = sample_response();
  std::uint8_t frame[kSnapshotResponseBytes];
  encode_snapshot_response(in, frame);

  SnapshotResponse out;
  std::string diagnostic;
  ASSERT_TRUE(decode_snapshot_response(frame, &out, &diagnostic)) << diagnostic;
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.seq, in.seq);
  EXPECT_EQ(out.site, in.site);
  EXPECT_EQ(out.result.outcome, in.result.outcome);
  EXPECT_EQ(out.result.crash_reason, in.result.crash_reason);
  EXPECT_EQ(to_bits(out.result.injected_error),
            to_bits(in.result.injected_error));
  EXPECT_EQ(to_bits(out.result.output_error), to_bits(in.result.output_error));
  EXPECT_EQ(out.result.crash_site, in.result.crash_site);
  EXPECT_EQ(out.result.detector_fired, in.result.detector_fired);
}

TEST(SnapshotCodec, CommandRejectsEveryOneByteCorruption) {
  std::uint8_t frame[kSnapshotCommandBytes];
  encode_snapshot_command(sample_command(), frame);

  for (std::size_t byte = 0; byte < kSnapshotCommandBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t corrupt[kSnapshotCommandBytes];
      std::memcpy(corrupt, frame, sizeof(frame));
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      SnapshotCommand out;
      std::string diagnostic;
      EXPECT_FALSE(decode_snapshot_command(corrupt, &out, &diagnostic))
          << "byte " << byte << " bit " << bit;
      EXPECT_FALSE(diagnostic.empty()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SnapshotCodec, ResponseRejectsEveryOneByteCorruption) {
  std::uint8_t frame[kSnapshotResponseBytes];
  encode_snapshot_response(sample_response(), frame);

  for (std::size_t byte = 0; byte < kSnapshotResponseBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t corrupt[kSnapshotResponseBytes];
      std::memcpy(corrupt, frame, sizeof(frame));
      corrupt[byte] ^= static_cast<std::uint8_t>(1u << bit);
      SnapshotResponse out;
      std::string diagnostic;
      EXPECT_FALSE(decode_snapshot_response(corrupt, &out, &diagnostic))
          << "byte " << byte << " bit " << bit;
      EXPECT_FALSE(diagnostic.empty()) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(SnapshotCodec, RejectsEveryTruncationAndOversize) {
  std::uint8_t command[kSnapshotCommandBytes];
  encode_snapshot_command(sample_command(), command);
  std::uint8_t response[kSnapshotResponseBytes];
  encode_snapshot_response(sample_response(), response);

  for (std::size_t n = 0; n < kSnapshotCommandBytes; ++n) {
    SnapshotCommand out;
    std::string diagnostic;
    EXPECT_FALSE(decode_snapshot_command({command, n}, &out, &diagnostic)) << n;
    EXPECT_FALSE(diagnostic.empty()) << n;
  }
  for (std::size_t n = 0; n < kSnapshotResponseBytes; ++n) {
    SnapshotResponse out;
    std::string diagnostic;
    EXPECT_FALSE(decode_snapshot_response({response, n}, &out, &diagnostic))
        << n;
    EXPECT_FALSE(diagnostic.empty()) << n;
  }
  // Oversize frames are rejected too (a frame must be exactly sized).
  std::vector<std::uint8_t> big(command, command + kSnapshotCommandBytes);
  big.push_back(0);
  SnapshotCommand out_cmd;
  EXPECT_FALSE(decode_snapshot_command(big, &out_cmd));
  std::vector<std::uint8_t> big_resp(response,
                                     response + kSnapshotResponseBytes);
  big_resp.push_back(0);
  SnapshotResponse out_resp;
  EXPECT_FALSE(decode_snapshot_response(big_resp, &out_resp));
}

TEST(SnapshotCodec, RejectsGarbageWithoutCrashing) {
  util::Rng rng(7);
  for (int i = 0; i < 512; ++i) {
    std::uint8_t junk[kSnapshotResponseBytes];
    for (std::uint8_t& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    SnapshotCommand command;
    SnapshotResponse response;
    EXPECT_FALSE(
        decode_snapshot_command({junk, kSnapshotCommandBytes}, &command));
    EXPECT_FALSE(
        decode_snapshot_response({junk, kSnapshotResponseBytes}, &response));
  }
}

TEST(SnapshotCodec, RejectsBadEnumsAndReservedBytesUnderValidCrc) {
  // Corruptions that keep the CRC valid (re-encoded after the tweak) must
  // still be rejected by the field validators.
  const auto reject_command = [](void (*tweak)(std::uint8_t*)) {
    std::uint8_t frame[kSnapshotCommandBytes];
    encode_snapshot_command(sample_command(), frame);
    tweak(frame);
    // Recompute the CRC so only the semantic check can reject.
    const std::uint32_t crc = util::crc32(frame, 48);
    frame[48] = static_cast<std::uint8_t>(crc);
    frame[49] = static_cast<std::uint8_t>(crc >> 8);
    frame[50] = static_cast<std::uint8_t>(crc >> 16);
    frame[51] = static_cast<std::uint8_t>(crc >> 24);
    SnapshotCommand out;
    std::string diagnostic;
    EXPECT_FALSE(decode_snapshot_command(frame, &out, &diagnostic));
    EXPECT_FALSE(diagnostic.empty());
  };
  reject_command([](std::uint8_t* f) { f[4] = 99; });   // version
  reject_command([](std::uint8_t* f) { f[5] = 200; });  // injection kind
  reject_command([](std::uint8_t* f) { f[6] = 200; });  // injection target
  reject_command([](std::uint8_t* f) { f[7] = 1; });    // reserved byte

  const auto reject_response = [](void (*tweak)(std::uint8_t*)) {
    std::uint8_t frame[kSnapshotResponseBytes];
    encode_snapshot_response(sample_response(), frame);
    tweak(frame);
    const std::uint32_t crc = util::crc32(frame, 52);
    frame[52] = static_cast<std::uint8_t>(crc);
    frame[53] = static_cast<std::uint8_t>(crc >> 8);
    frame[54] = static_cast<std::uint8_t>(crc >> 16);
    frame[55] = static_cast<std::uint8_t>(crc >> 24);
    SnapshotResponse out;
    std::string diagnostic;
    EXPECT_FALSE(decode_snapshot_response(frame, &out, &diagnostic));
    EXPECT_FALSE(diagnostic.empty());
  };
  reject_response([](std::uint8_t* f) { f[5] = 0; });    // frame type low
  reject_response([](std::uint8_t* f) { f[5] = 9; });    // frame type high
  reject_response([](std::uint8_t* f) { f[6] = 200; });  // outcome
  reject_response([](std::uint8_t* f) { f[7] = 200; });  // crash reason
  reject_response([](std::uint8_t* f) { f[24] = 2; });   // detector flag
  reject_response([](std::uint8_t* f) { f[26] = 1; });   // reserved byte
}

// ---------------------------------------------------------------------------
// Server behaviour
// ---------------------------------------------------------------------------

// SIGKILLing the runner only *queues* its death; on a loaded single-CPU
// host the zombie transition (and the PR_SET_PDEATHSIG cascade into the
// holders) lands whenever the scheduler gets around to it.  Wait for the
// tree to be genuinely dead before asserting on the recovery behaviour.
void wait_for_runner_death(std::int64_t runner) {
  for (int i = 0; i < 200; ++i) {
    // Signal 0 probes existence; a zombie still "exists", so give the
    // PDEATHSIG chain a beat even after the probe starts failing.
    if (::kill(static_cast<pid_t>(runner), 0) != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void expect_same_result(const ExperimentResult& snap,
                        const ExperimentResult& classic, std::uint64_t tag) {
  EXPECT_EQ(snap.outcome, classic.outcome) << tag;
  EXPECT_EQ(snap.crash_reason, classic.crash_reason) << tag;
  EXPECT_EQ(to_bits(snap.injected_error), to_bits(classic.injected_error))
      << tag;
  EXPECT_EQ(to_bits(snap.output_error), to_bits(classic.output_error)) << tag;
  EXPECT_EQ(snap.crash_site, classic.crash_site) << tag;
  EXPECT_EQ(snap.detector_fired, classic.detector_fired) << tag;
}

// ---------------------------------------------------------------------------
// Checkpoint planning: density-aware slot placement (bench/micro_supervisor
// measures the speedup; these tests pin the placement contract).
// ---------------------------------------------------------------------------

TEST(PlanCheckpoints, UniformGridWithoutHints) {
  const ProgramPtr program = kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotOptions options;
  options.interval = 100;
  options.max_checkpoints = 64;
  const std::vector<std::uint64_t> plan = plan_checkpoints(golden, options);

  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front(), 0u);  // the pre-run checkpoint always exists
  EXPECT_TRUE(std::is_sorted(plan.begin(), plan.end()));
  // Every phase edge and every interval multiple below the trace end shows
  // up (the plan is under the cap, so nothing is thinned).
  for (const PhaseMark& mark : golden.phases) {
    EXPECT_NE(std::find(plan.begin(), plan.end(), mark.begin), plan.end())
        << "phase edge " << mark.begin;
  }
  for (std::uint64_t s = 100; s < golden.trace.size(); s += 100) {
    EXPECT_NE(std::find(plan.begin(), plan.end(), s), plan.end())
        << "grid site " << s;
  }
}

TEST(PlanCheckpoints, DensityHintsConcentrateSlotsWhereSitesAre) {
  const ProgramPtr program = kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  const std::uint64_t total = golden.trace.size();

  // All pending experiments live in the last quarter of the trace (the
  // late-site regime snapshots exist for).
  SnapshotOptions options;
  options.max_checkpoints = 12;
  for (std::uint64_t s = total - total / 4; s < total; s += 3) {
    options.site_hints.push_back(s);
  }
  const std::vector<std::uint64_t> plan = plan_checkpoints(golden, options);

  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front(), 0u);
  EXPECT_LE(plan.size(), options.max_checkpoints);
  EXPECT_TRUE(std::is_sorted(plan.begin(), plan.end()));
  // The non-mandatory slots all land inside the hinted region: nothing from
  // the uniform grid in the dead first three quarters.
  std::size_t inside = 0;
  for (std::uint64_t site : plan) {
    if (site >= total - total / 4) ++inside;
  }
  EXPECT_GE(inside, plan.size() - 1 - golden.phases.size());
  // Hint quantiles include the extremes, so the budget spans the region.
  EXPECT_EQ(plan.back(), options.site_hints.back());
}

TEST(PlanCheckpoints, OutOfRangeHintsFallBackToUniformGrid) {
  const ProgramPtr program = kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotOptions options;
  options.interval = 200;
  // Every hint is past the end of the trace: filtered out, so the plan
  // must match the no-hints uniform grid exactly.
  options.site_hints = {golden.trace.size(), golden.trace.size() + 7};
  const std::vector<std::uint64_t> hinted = plan_checkpoints(golden, options);
  options.site_hints.clear();
  EXPECT_EQ(hinted, plan_checkpoints(golden, options));
}

TEST(PlanCheckpoints, CapThinsButKeepsInstructionZero) {
  const ProgramPtr program = kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotOptions options;
  options.interval = 8;  // far more grid sites than the cap allows
  options.max_checkpoints = 5;
  const std::vector<std::uint64_t> plan = plan_checkpoints(golden, options);
  EXPECT_LE(plan.size(), 5u);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front(), 0u);
  EXPECT_TRUE(std::is_sorted(plan.begin(), plan.end()));
}

TEST(SnapshotServer, SupportedOnThisPlatform) {
  EXPECT_TRUE(snapshot_supported());
}

TEST(SnapshotServer, SafeGatingRefusesThreadedConfigs) {
  const ProgramPtr serial =
      kernels::make_program("cg", kernels::Preset::kTiny);
  EXPECT_TRUE(snapshot_safe(*serial));

  kernels::CgConfig threaded_config;
  threaded_config.threads = 2;
  const kernels::CgProgram threaded(threaded_config);
  EXPECT_FALSE(snapshot_safe(threaded));

  // A server over an unsafe program comes up unhealthy and falls back
  // in-process -- with results identical to run_injected().
  const GoldenRun golden = run_golden(threaded);
  SnapshotServer server(threaded, golden);
  EXPECT_FALSE(server.healthy());
  EXPECT_EQ(server.checkpoint_count(), 0u);
  const Injection injection = Injection::bit_flip(3, 11);
  expect_same_result(server.run(injection),
                     run_injected(threaded, golden, injection), 0);
  EXPECT_GE(server.stats().fallback_experiments, 1u);
  EXPECT_EQ(server.stats().served, 0u);
}

TEST(SnapshotServer, ServedExperimentsMatchInProcessBitExactly) {
  const ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  ASSERT_FALSE(golden.touch_sizes.empty());

  SnapshotOptions options;
  options.interval = 200;  // several mid-run checkpoints on the tiny trace
  SnapshotServer server(*program, golden, options);
  ASSERT_TRUE(server.healthy());
  EXPECT_GE(server.checkpoint_count(), 3u);

  util::Rng rng(41);
  std::vector<Injection> injections;
  for (const campaign::ExperimentId id :
       campaign::sample_uniform(rng, golden.sample_space_size(), 48)) {
    injections.push_back(campaign::injection_of(id));
  }
  // Memory-resident faults replay from the pre-run checkpoint.
  injections.push_back(Injection::mem_xor(0, 0, std::uint64_t{1} << 40));
  injections.push_back(Injection::mem_xor(
      static_cast<std::uint32_t>(golden.touch_sizes.size() - 1), 0,
      std::uint64_t{3} << 20));

  for (std::size_t i = 0; i < injections.size(); ++i) {
    expect_same_result(server.run(injections[i]),
                       run_injected(*program, golden, injections[i]), i);
  }
  const SnapshotStats& stats = server.stats();
  EXPECT_EQ(stats.served, injections.size());
  EXPECT_EQ(stats.fallback_experiments, 0u);
  EXPECT_EQ(stats.rebuilds, 0u);
  // Late-site experiments skipped a real prefix: that is the entire point.
  EXPECT_GT(stats.skipped_prefix, 0u);
}

TEST(SnapshotServer, NearestCheckpointIsMonotoneAndBelowSite) {
  const ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotOptions options;
  options.interval = 128;
  SnapshotServer server(*program, golden, options);
  ASSERT_TRUE(server.healthy());

  EXPECT_EQ(server.nearest_checkpoint(0), 0u);
  std::uint64_t previous = 0;
  for (std::uint64_t site = 0; site < golden.trace.size();
       site += golden.trace.size() / 17 + 1) {
    const std::uint64_t nearest = server.nearest_checkpoint(site);
    EXPECT_LE(nearest, site);
    EXPECT_GE(nearest, previous);
    previous = nearest;
  }
}

TEST(SnapshotServer, RebuildsAfterRunnerDeath) {
  const ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotServer server(*program, golden);
  ASSERT_TRUE(server.healthy());

  const std::int64_t runner = server.runner_pid();
  ASSERT_GT(runner, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(runner), SIGKILL), 0);
  wait_for_runner_death(runner);

  // The next experiment notices the damage, rebuilds the tree, and still
  // returns the bit-exact classic result.
  const Injection injection = Injection::bit_flip(5, 13);
  expect_same_result(server.run(injection),
                     run_injected(*program, golden, injection), 0);
  EXPECT_TRUE(server.healthy());
  EXPECT_GE(server.stats().rebuilds, 1u);
  EXPECT_NE(server.runner_pid(), runner);
}

TEST(SnapshotServer, DegradesToFallbackWhenRebuildBudgetSpent) {
  const ProgramPtr program =
      kernels::make_program("daxpy", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  SnapshotOptions options;
  options.max_rebuilds = 0;
  SnapshotServer server(*program, golden, options);
  ASSERT_TRUE(server.healthy());

  const std::int64_t runner = server.runner_pid();
  ASSERT_GT(runner, 0);
  ASSERT_EQ(::kill(static_cast<pid_t>(runner), SIGKILL), 0);
  wait_for_runner_death(runner);

  const Injection injection = Injection::bit_flip(2, 7);
  expect_same_result(server.run(injection),
                     run_injected(*program, golden, injection), 0);
  EXPECT_FALSE(server.healthy());
  EXPECT_GE(server.stats().fallback_experiments, 1u);
  EXPECT_EQ(server.stats().rebuilds, 0u);
}

TEST(SnapshotServer, ClassifiesLethalFlipsLikeTheSandbox) {
  const kernels::HazardProgram program{kernels::HazardConfig{}};
  const GoldenRun golden = run_golden(program);
  ASSERT_TRUE(snapshot_safe(program));
  SnapshotServer server(program, golden);
  ASSERT_TRUE(server.healthy());

  // ~2^514 array offset: the experiment child segfaults (or, under a
  // sanitizer, aborts) and the holder classifies the death.
  const ExperimentResult crash =
      server.run(Injection::bit_flip(program.offset_site(1), 61));
  EXPECT_EQ(crash.outcome, Outcome::kCrash);
  EXPECT_TRUE(is_isolation_reason(crash.crash_reason))
      << to_string(crash.crash_reason);

  // The tree survives hostile children: the next benign experiment is
  // served normally, no rebuild needed.
  const Injection benign = Injection::bit_flip(0, 1);
  expect_same_result(server.run(benign), run_injected(program, golden, benign),
                     1);
  EXPECT_EQ(server.stats().rebuilds, 0u);
}

TEST(SnapshotServer, WatchdogConvertsSpinIntoHang) {
  const kernels::HazardSpinProgram program{kernels::HazardSpinConfig{}};
  const GoldenRun golden = run_golden(program);
  ASSERT_TRUE(snapshot_safe(program));

  SnapshotOptions options;
  options.timeout_ms = 250;
  SnapshotServer server(program, golden, options);
  ASSERT_TRUE(server.healthy());

  // Exponent LSB of the 0.5 decay factor -> 1.0: the residual never
  // shrinks and the holder's per-experiment watchdog must fire.
  const ExperimentResult hang = server.run(
      Injection::bit_flip(kernels::HazardSpinProgram::kDecaySite, 52));
  EXPECT_EQ(hang.outcome, Outcome::kHang);
  EXPECT_EQ(hang.crash_reason, CrashReason::kNone);

  const Injection benign = Injection::bit_flip(0, 0);
  expect_same_result(server.run(benign), run_injected(program, golden, benign),
                     1);
}

// ---------------------------------------------------------------------------
// Campaign integration: worker pool and checkpointed journals
// ---------------------------------------------------------------------------

std::string temp_journal(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("ftb_snapshot_") + tag + ".clog"))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SnapshotCampaign, PoolModeMatchesClassicRecords) {
  const ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  util::Rng rng(51);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 64);

  campaign::SupervisorOptions classic_options;
  classic_options.pool.workers = 2;
  campaign::CampaignSupervisor classic(*program, golden, classic_options);
  const std::vector<campaign::ExperimentRecord> classic_records =
      classic.run(ids);

  campaign::SupervisorOptions snap_options;
  snap_options.pool.workers = 2;
  snap_options.pool.use_snapshots = true;
  snap_options.pool.snapshot.interval = 256;
  campaign::CampaignSupervisor snapshotted(*program, golden, snap_options);
  const std::vector<campaign::ExperimentRecord> snap_records =
      snapshotted.run(ids);

  ASSERT_EQ(snap_records.size(), classic_records.size());
  for (std::size_t i = 0; i < classic_records.size(); ++i) {
    EXPECT_EQ(snap_records[i].id, classic_records[i].id);
    expect_same_result(snap_records[i].result, classic_records[i].result,
                       classic_records[i].id);
  }
}

TEST(SnapshotCampaign, JournalBytesMatchClassicAcrossKillAndResume) {
  // The ISSUE acceptance scenario: snapshot-mode journals must be
  // byte-identical to classic ones, including after an interrupted run is
  // resumed (the journal a kill -9 leaves behind is exactly the partial,
  // flushed-every-chunk journal this builds by running half the ids).
  const ProgramPtr program =
      kernels::make_program("cg", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  util::Rng rng(52);
  const std::vector<campaign::ExperimentId> ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), 80);

  campaign::CheckpointOptions classic;
  classic.path = temp_journal("classic");
  classic.flush_every = 32;
  classic.use_supervisor = true;
  classic.supervisor.pool.workers = 2;
  run_campaign_checkpointed(*program, golden, ids, classic);

  campaign::CheckpointOptions snap;
  snap.path = temp_journal("snap");
  snap.flush_every = 32;
  snap.use_supervisor = true;
  snap.supervisor.pool.workers = 2;
  snap.supervisor.pool.use_snapshots = true;
  snap.supervisor.pool.snapshot.interval = 256;

  // Interrupted first attempt: only half the ids, journal flushed per chunk.
  const std::span<const campaign::ExperimentId> first_half(ids.data(), 40);
  run_campaign_checkpointed(*program, golden, first_half, snap);
  // Resume with the full set on a fresh supervisor (fresh snapshot trees).
  const campaign::CheckpointRunResult resumed =
      run_campaign_checkpointed(*program, golden, ids, snap);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_GE(resumed.skipped, 40u);

  EXPECT_EQ(file_bytes(snap.path), file_bytes(classic.path));
  std::filesystem::remove(classic.path);
  std::filesystem::remove(snap.path);
}

TEST(SnapshotCampaign, HolderClassifiesSpinBeforePoolHeartbeatFires) {
  // A spinning flip served from a snapshot tree is the holder's to classify:
  // its watchdog records one Hang and the worker lives on.  The pool's
  // heartbeat must outlast that watchdog rather than race it -- a lost race
  // kills the worker, respawns it, rebuilds its tree and retries the
  // experiment.  The watchdog here is longer than the heartbeat, so a pool
  // that used the bare heartbeat as its stall deadline would always win.
  const kernels::HazardSpinProgram program{kernels::HazardSpinConfig{}};
  const GoldenRun golden = run_golden(program);
  ASSERT_TRUE(snapshot_safe(program));
  const std::vector<campaign::ExperimentId> ids = {
      campaign::encode(0, 0),  // benign
      // Exponent LSB of the 0.5 decay factor: the residual never shrinks.
      campaign::encode(kernels::HazardSpinProgram::kDecaySite, 52),
  };

  campaign::CheckpointOptions plain;
  plain.path = temp_journal("spin_plain");
  plain.use_supervisor = true;
  plain.supervisor.pool.workers = 1;
  plain.supervisor.pool.heartbeat_timeout_ms = 200;
  plain.supervisor.quarantine_after = 1;
  std::filesystem::remove(plain.path);
  run_campaign_checkpointed(program, golden, ids, plain);

  campaign::CheckpointOptions snap = plain;
  snap.path = temp_journal("spin_snap");
  snap.supervisor.pool.use_snapshots = true;
  snap.supervisor.pool.snapshot.timeout_ms = 300;
  std::filesystem::remove(snap.path);
  const campaign::CheckpointRunResult run =
      run_campaign_checkpointed(program, golden, ids, snap);

  const campaign::OutcomeCounts counts =
      campaign::count_outcomes(run.log.records());
  EXPECT_EQ(counts.hang, 1u);
  EXPECT_EQ(run.supervisor_stats.worker_hangs, 0u);
  EXPECT_EQ(run.supervisor_stats.pool.respawns, 0u);
  EXPECT_EQ(file_bytes(snap.path), file_bytes(plain.path));
  std::filesystem::remove(plain.path);
  std::filesystem::remove(snap.path);
}

}  // namespace
}  // namespace ftb::fi
