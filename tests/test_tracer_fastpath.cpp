// Tracer::step's inline fast paths against its out-of-line event path.
//
// step() only handles the common cases inline (before the fault fires, and
// after it fires in Inject/Compare mode) and keeps two cached bounds that
// must be refreshed whenever the state they derive from changes.
// CompareStream never takes a fast path, so it is the reference: every
// kernel's experiments must agree with it on outcome, injected error, crash
// site, step count and every diff.  The edge cases below pin the places the
// bounds are refreshed: checkpoint hooks, memory faults fired in touch(),
// and shard joins.
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fi/executor.h"
#include "fi/fpbits.h"
#include "fi/memfault.h"
#include "fi/tracer.h"
#include "kernels/registry.h"
#include "util/rng.h"

namespace ftb::fi {
namespace {

/// Everything one traced run leaves behind.
struct RunRecord {
  ExperimentResult result;
  std::uint64_t steps = 0;
  std::vector<double> diffs;
};

RunRecord finish(const Program& program, const GoldenRun& golden,
                 Tracer& tracer, std::vector<double> diffs) {
  RunRecord record;
  try {
    const std::vector<double> output = program.run(tracer);
    record.result = classify_finished(program, golden, tracer, output);
  } catch (const CrashSignal& signal) {
    record.result = classify_crash(tracer, signal.site);
  }
  record.steps = tracer.steps();
  record.diffs = std::move(diffs);
  return record;
}

RunRecord run_inject(const Program& program, const GoldenRun& golden,
                     const Injection& injection) {
  Tracer tracer = Tracer::injector(injection);
  return finish(program, golden, tracer, {});
}

RunRecord run_compare(const Program& program, const GoldenRun& golden,
                      const Injection& injection) {
  std::vector<double> diffs(golden.trace.size(), 0.0);
  Tracer tracer = Tracer::comparator(injection, golden.trace, diffs);
  return finish(program, golden, tracer, std::move(diffs));
}

/// The reference: the stream comparator runs every step through the event
/// path, with golden values pulled from the in-memory trace.
RunRecord run_stream(const Program& program, const GoldenRun& golden,
                     const Injection& injection) {
  struct State {
    const std::vector<double>* golden;
    std::size_t cursor;
    std::vector<double> diffs;
  };
  State state{&golden.trace, 0, std::vector<double>(golden.trace.size(), 0.0)};
  Tracer::StreamHooks hooks;
  hooks.ctx = &state;
  hooks.next_golden = [](void* ctx) {
    auto* s = static_cast<State*>(ctx);
    return s->cursor < s->golden->size() ? (*s->golden)[s->cursor++] : 0.0;
  };
  hooks.observe = [](void* ctx, std::uint64_t site, double error) {
    auto* s = static_cast<State*>(ctx);
    if (site < s->diffs.size()) s->diffs[site] = error;
  };
  Tracer tracer = Tracer::stream_comparator(injection, hooks);
  RunRecord record = finish(program, golden, tracer, {});
  record.diffs = std::move(state.diffs);
  return record;
}

void expect_same_run(const RunRecord& expected, const RunRecord& actual,
                     bool with_diffs, const std::string& label) {
  EXPECT_EQ(actual.result.outcome, expected.result.outcome) << label;
  EXPECT_EQ(actual.result.crash_reason, expected.result.crash_reason) << label;
  EXPECT_EQ(to_bits(actual.result.injected_error),
            to_bits(expected.result.injected_error))
      << label;
  EXPECT_EQ(to_bits(actual.result.output_error),
            to_bits(expected.result.output_error))
      << label;
  if (expected.result.outcome == Outcome::kCrash) {
    EXPECT_EQ(actual.result.crash_site, expected.result.crash_site) << label;
  }
  EXPECT_EQ(actual.steps, expected.steps) << label;
  if (!with_diffs) return;
  ASSERT_EQ(actual.diffs.size(), expected.diffs.size()) << label;
  std::size_t mismatches = 0;
  std::size_t first_mismatch = 0;
  for (std::size_t i = 0; i < expected.diffs.size(); ++i) {
    if (to_bits(actual.diffs[i]) != to_bits(expected.diffs[i])) {
      if (mismatches++ == 0) first_mismatch = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << label << ": first at diff " << first_mismatch;
}

std::vector<Injection> injections_for(const std::string& name,
                                      const GoldenRun& golden) {
  // The hazard kernels derive control flow from traced values; only
  // low-mantissa flips are safe to run in-process (kernels/hazard.h).
  const bool hazard = name.rfind("hazard", 0) == 0;
  const int bit_limit = hazard ? 32 : kBitsPerValue;
  const std::uint64_t sites = golden.trace.size();
  util::Rng rng(0x7ace + sites);

  std::vector<Injection> out;
  for (const int bit : {0, 31, 52, 62, 63}) {
    if (bit >= bit_limit) continue;
    out.push_back(Injection::bit_flip(0, bit));
    out.push_back(Injection::bit_flip(sites - 1, bit));
  }
  for (int i = 0; i < 24; ++i) {
    out.push_back(Injection::bit_flip(
        rng.next_below(sites), static_cast<int>(rng.next_below(bit_limit))));
  }
  for (int i = 0; i < 6; ++i) {
    const int width = 2 + static_cast<int>(rng.next_below(6));
    out.push_back(trace_burst(
        rng.next_below(sites),
        static_cast<int>(rng.next_below(bit_limit - width)), width));
  }
  const std::uint64_t mem_space = mem_sample_space(golden.touch_sizes);
  if (!hazard && mem_space > 0) {
    for (int i = 0; i < 8; ++i) {
      const int width = i % 2 == 0 ? 1 : 4;
      out.push_back(
          mem_fault_at(golden.touch_sizes, rng.next_below(mem_space), width)
              .to_injection());
    }
  }
  return out;
}

TEST(TracerFastPath, EveryKernelMatchesTheEventPath) {
  std::size_t crashes = 0;
  std::size_t memory = 0;
  for (const std::string& name : kernels::program_names()) {
    SCOPED_TRACE(name);
    const ProgramPtr program =
        kernels::make_program(name, kernels::Preset::kTiny);
    const GoldenRun golden = run_golden(*program);
    ASSERT_GT(golden.trace.size(), 0u);
    for (const Injection& injection : injections_for(name, golden)) {
      const std::string label =
          name + (injection.is_memory_fault() ? " mem " : " site ") +
          std::to_string(injection.site) + " mask/bit " +
          std::to_string(injection.mask) + "/" + std::to_string(injection.bit);
      const RunRecord reference = run_stream(*program, golden, injection);
      expect_same_run(reference, run_inject(*program, golden, injection),
                      /*with_diffs=*/false, label + " (inject)");
      expect_same_run(reference, run_compare(*program, golden, injection),
                      /*with_diffs=*/true, label + " (compare)");
      crashes += reference.result.outcome == Outcome::kCrash;
      memory += injection.is_memory_fault();
    }
  }
  // The comparison must have seen both sides of the crash check, and
  // memory faults as well as trace faults.
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(memory, 0u);
}

/// A fixed little computation: step i produces 1.5 * previous + 0.25.
std::vector<double> drive(Tracer& tracer, std::size_t steps = 8) {
  std::vector<double> produced;
  double accumulator = 1.0;
  for (std::size_t i = 0; i < steps; ++i) {
    accumulator = tracer.step(accumulator * 1.5 + 0.25);
    produced.push_back(accumulator);
  }
  return produced;
}

std::vector<double> golden_drive(std::size_t steps = 8) {
  std::vector<double> golden;
  Tracer recorder = Tracer::recorder(golden);
  drive(recorder, steps);
  return golden;
}

/// Checkpoint hook context: records every index the hook ran at, and on
/// its first call optionally swaps in `rearm_with`.
struct HookLog {
  std::vector<std::uint64_t> reached;
  std::vector<std::uint64_t> next;  // checkpoints to arm, in order
  bool rearm = false;
  Injection rearm_with{};
};

std::uint64_t log_hook(void* ctx, Tracer& tracer, std::uint64_t index) {
  auto* log = static_cast<HookLog*>(ctx);
  if (log->rearm && log->reached.empty()) tracer.rearm(log->rearm_with);
  const std::size_t call = log->reached.size();
  log->reached.push_back(index);
  return call < log->next.size() ? log->next[call] : Tracer::kNoCheckpoint;
}

TEST(TracerFastPath, HookRearmingAtTheInjectionIndexStillFires) {
  // The snapshot fork-server's shape: a never-firing placeholder, then a
  // checkpoint hook that rearms the real fault at exactly its own index.
  const std::vector<double> golden = golden_drive();
  const std::uint64_t site = 5;
  const Injection fault = Injection::bit_flip(site, 40);

  Tracer plain = Tracer::injector(fault);
  const std::vector<double> expected = drive(plain);

  for (const bool compare : {false, true}) {
    SCOPED_TRACE(compare ? "compare" : "inject");
    std::vector<double> diffs(golden.size(), 0.0);
    const Injection placeholder = Injection::bit_flip(Tracer::kNoCheckpoint, 0);
    Tracer tracer = compare ? Tracer::comparator(placeholder, golden, diffs)
                            : Tracer::injector(placeholder);
    HookLog log;
    log.rearm = true;
    log.rearm_with = fault;
    tracer.arm_checkpoint_hook({&log, log_hook}, site);
    const std::vector<double> produced = drive(tracer);

    EXPECT_EQ(log.reached, std::vector<std::uint64_t>{site});
    EXPECT_TRUE(tracer.fired());
    EXPECT_EQ(produced, expected);
    EXPECT_EQ(to_bits(tracer.injected_error()),
              to_bits(plain.injected_error()));
    if (compare) {
      for (std::size_t i = 0; i < golden.size(); ++i) {
        const double want =
            i < site ? 0.0 : std::fabs(produced[i] - golden[i]);
        EXPECT_EQ(diffs[i], want) << i;
      }
    }
  }
}

TEST(TracerFastPath, HookBelowAndAfterTheSiteLeavesTheRunUnchanged) {
  // A hook armed below the site, and again after it has fired: the fault
  // fires at its site between them and the post-fault fast path resumes
  // after each hook.
  const std::vector<double> golden = golden_drive(12);
  const std::uint64_t site = 6;
  const Injection fault = Injection::bit_flip(site, 44);

  std::vector<double> expected_diffs(golden.size(), 0.0);
  Tracer plain = Tracer::comparator(fault, golden, expected_diffs);
  const std::vector<double> expected = drive(plain, 12);

  std::vector<double> diffs(golden.size(), 0.0);
  Tracer tracer = Tracer::comparator(fault, golden, diffs);
  HookLog log;
  log.next = {9, 10};
  tracer.arm_checkpoint_hook({&log, log_hook}, 2);
  const std::vector<double> produced = drive(tracer, 12);

  EXPECT_EQ(log.reached, (std::vector<std::uint64_t>{2, 9, 10}));
  EXPECT_TRUE(tracer.fired());
  EXPECT_EQ(produced, expected);
  EXPECT_EQ(diffs, expected_diffs);
  EXPECT_NE(diffs[11], 0.0);
}

TEST(TracerFastPath, NonFiniteValueAfterTheSiteTrapsThere) {
  // Corrupting step 0 to 0 makes step 1 produce 1/0 = inf: the run traps at
  // site + 1, through the post-fault fast path, in both modes.
  auto divide_chain = [](Tracer& tracer) {
    double v = tracer.step(2.0);
    v = tracer.step(1.0 / v);
    v = tracer.step(v + 1.0);
    return v;
  };
  std::vector<double> golden;
  {
    Tracer recorder = Tracer::recorder(golden);
    divide_chain(recorder);
  }
  const Injection fault = Injection::set_value(0, 0.0);
  std::vector<double> diffs(golden.size(), 0.0);
  Tracer injector = Tracer::injector(fault);
  Tracer comparator = Tracer::comparator(fault, golden, diffs);
  for (Tracer* tracer : {&injector, &comparator}) {
    try {
      divide_chain(*tracer);
      ADD_FAILURE() << "expected a CrashSignal";
    } catch (const CrashSignal& signal) {
      EXPECT_EQ(signal.site, 1u);
    }
    EXPECT_EQ(tracer->steps(), 2u);
  }
  EXPECT_EQ(diffs[0], 2.0);  // |0 - 2|
  EXPECT_EQ(diffs[1], 0.0);  // the trapping step stores nothing
}

TEST(TracerFastPath, MemoryFaultFiredInTouchTrapsOnTheNextNonFinite) {
  // Flipping bit 62 of 1.0 gives +inf in the touched state; the first value
  // produced from it traps even though no trace site ever fired.
  auto program = [](Tracer& tracer) {
    std::vector<double> state = {1.0, 3.0};
    double v = tracer.step(state[1] * 0.5);
    tracer.touch(state);
    v = tracer.step(v + 1.0);
    v = tracer.step(state[0] * 2.0);  // inf once state[0] is corrupted
    return tracer.step(v + state[1]);
  };
  std::vector<double> golden;
  std::vector<std::uint64_t> touch_sizes;
  {
    Tracer recorder = Tracer::recorder(golden, nullptr, &touch_sizes);
    program(recorder);
  }
  ASSERT_EQ(touch_sizes, std::vector<std::uint64_t>{2});
  const Injection fault = Injection::mem_xor(0, 0, std::uint64_t{1} << 62);
  std::vector<double> diffs(golden.size(), 0.0);
  Tracer injector = Tracer::injector(fault);
  Tracer comparator = Tracer::comparator(fault, golden, diffs);
  for (Tracer* tracer : {&injector, &comparator}) {
    try {
      program(*tracer);
      ADD_FAILURE() << "expected a CrashSignal";
    } catch (const CrashSignal& signal) {
      EXPECT_EQ(signal.site, 2u);
    }
    EXPECT_TRUE(tracer->fired());
    EXPECT_TRUE(std::isinf(tracer->injected_error()));
  }
  // Step 1 ran after the fault and matched the golden value exactly.
  EXPECT_EQ(diffs[0], 0.0);
  EXPECT_EQ(diffs[1], 0.0);
}

TEST(TracerFastPath, StepsPastTheDiffBufferAreNotStored) {
  // A run longer than its golden trace (diverged control flow) keeps
  // running; diffs beyond the buffer are dropped, not written out of range.
  const std::vector<double> golden = golden_drive(4);
  std::vector<double> diffs(golden.size(), 0.0);
  Tracer comparator =
      Tracer::comparator(Injection::bit_flip(1, 30), golden, diffs);
  const std::vector<double> produced = drive(comparator, 8);
  EXPECT_EQ(comparator.steps(), 8u);
  EXPECT_EQ(diffs[0], 0.0);
  for (std::size_t i = 1; i < golden.size(); ++i) {
    EXPECT_EQ(diffs[i], std::fabs(produced[i] - golden[i])) << i;
  }
}

/// Serial step, a two-shard region, then serial steps: the shape of a +tN
/// kernel.  Returns every produced value so a test can check diffs exactly.
std::vector<double> sharded_program(Tracer& tracer) {
  std::vector<double> values(10);
  values[0] = tracer.step(1.25);
  std::vector<Tracer::Shard> shards;
  shards.push_back(tracer.shard(3));
  shards.push_back(tracer.shard(3));
  std::vector<std::thread> workers;
  for (std::size_t th = 0; th < 2; ++th) {
    workers.emplace_back([&shards, &values, th] {
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t i = 1 + th * 3 + k;
        values[i] = shards[th].step(values[0] * static_cast<double>(i) + 0.5);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  tracer.join(shards);
  double sum = 0.0;
  for (std::size_t i = 7; i < 10; ++i) {
    sum += values[i - 3];
    values[i] = tracer.step(sum);
  }
  return values;
}

TEST(TracerFastPath, ShardFiredFaultRecordsDiffsAfterJoin) {
  std::vector<double> golden;
  {
    Tracer recorder = Tracer::recorder(golden);
    sharded_program(recorder);
  }
  ASSERT_EQ(golden.size(), 10u);
  const std::uint64_t site = 5;  // shard 1, its second step
  std::vector<double> diffs(golden.size(), 0.0);
  Tracer comparator =
      Tracer::comparator(Injection::bit_flip(site, 45), golden, diffs);
  const std::vector<double> produced = sharded_program(comparator);
  EXPECT_TRUE(comparator.fired());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const double want = i < site ? 0.0 : std::fabs(produced[i] - golden[i]);
    EXPECT_EQ(diffs[i], want) << i;
  }
  // Steps 8 and 9 sum the corrupted value: post-join evidence exists.
  EXPECT_NE(diffs[8], 0.0);
  EXPECT_NE(diffs[9], 0.0);
}

TEST(TracerFastPath, ThreadedKernelCompareAgreesWithInject) {
  const ProgramPtr program =
      kernels::make_program("cg+t2", kernels::Preset::kTiny);
  const GoldenRun golden = run_golden(*program);
  util::Rng rng(21);
  std::vector<double> diffs(golden.trace.size());
  std::size_t propagated = 0;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t site = rng.next_below(golden.trace.size());
    const Injection fault =
        Injection::bit_flip(site, static_cast<int>(rng.next_below(52)));
    const ExperimentResult injected = run_injected(*program, golden, fault);
    const ExperimentResult compared =
        run_injected_compare(*program, golden, fault, diffs);
    EXPECT_EQ(compared.outcome, injected.outcome) << site;
    EXPECT_EQ(to_bits(compared.injected_error),
              to_bits(injected.injected_error))
        << site;
    EXPECT_EQ(to_bits(compared.output_error), to_bits(injected.output_error))
        << site;
    if (injected.outcome == Outcome::kCrash) continue;
    for (std::uint64_t j = 0; j < site; ++j) ASSERT_EQ(diffs[j], 0.0) << j;
    EXPECT_EQ(to_bits(diffs[site]), to_bits(injected.injected_error)) << site;
    // A nonzero output error needs a nonzero diff at the last step that
    // carried the error into the output.
    if (injected.output_error > 0.0) {
      std::uint64_t nonzero_after = 0;
      for (std::uint64_t j = site + 1; j < diffs.size(); ++j) {
        nonzero_after += diffs[j] != 0.0;
      }
      EXPECT_GT(nonzero_after, 0u) << site;
      ++propagated;
    }
  }
  EXPECT_GT(propagated, 0u);
}

}  // namespace
}  // namespace ftb::fi
