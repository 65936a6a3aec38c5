// Outcome classification for fault-injection experiments (paper Section 2.1):
// Masked, SDC, or Crash, decided by comparing the corrupted run's final
// output against the golden run's output under an L-infinity tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace ftb::fi {

enum class Outcome : std::uint8_t {
  kMasked = 0,    // acceptable output (within tolerance of the golden run)
  kSdc = 1,       // silently wrong output (includes a non-finite final output
                  // that was produced without tripping a CrashSignal: the
                  // program did not trap, so the corruption is silent)
  kCrash = 2,     // "loud" failure: NaN/Inf trap, fatal signal, diverged run
  kHang = 3,      // a runaway experiment was killed by a worker-pool or
                  // snapshot watchdog (process isolation only)
  kDetected = 4,  // output is wrong, but the program's ABFT detector fired:
                  // the corruption would have been reported, so it is not
                  // *silent* data corruption (fi/detector.h)
};

const char* to_string(Outcome outcome) noexcept;

/// Human-readable name for a raw serialized outcome value, including values
/// this binary does not know (future log versions): "Masked", ...,
/// "unknown(7)".  Load diagnostics use this so v-next logs fail readably.
std::string outcome_name(std::uint64_t raw);

/// Why a Crash (or Hang) experiment terminated.  The in-process executor can
/// only observe the first two; the remaining reasons require process
/// isolation (the worker pool in fi/sandbox.h, or the snapshot children in
/// fi/snapshot.h), which classifies real child-process deaths.
enum class CrashReason : std::uint8_t {
  kNone = 0,          // not a crash (Masked/SDC), or a Hang (no crash signal)
  kNonFinite = 1,     // NaN/Inf produced in the trace or output (CrashSignal)
  kControlFlow = 2,   // dynamic-instruction count diverged from the golden run
  kSigSegv = 3,       // child died with SIGSEGV
  kSigFpe = 4,        // child died with SIGFPE
  kSigAbrt = 5,       // child died with SIGABRT
  kSigBus = 6,        // child died with SIGBUS
  kSigIll = 7,        // child died with SIGILL
  kOtherSignal = 8,   // child died with some other fatal signal
  kAbnormalExit = 9,  // child exited nonzero without finishing the experiment
  kQuarantined = 10,  // written only by older journals: the supervisor once
                      // recorded an experiment that killed K workers this
                      // way; it now records the death's own classification
};

const char* to_string(CrashReason reason) noexcept;

/// True for reasons only the process-isolation layer can produce (a child
/// that was killed by a signal or exited abnormally).
bool is_isolation_reason(CrashReason reason) noexcept;

/// Acceptance test: L-inf(output - golden) <= atol + rtol * L-inf(golden).
/// This is the paper's "acceptable tolerance level defined by the domain
/// user"; each kernel configuration carries its own comparator.
struct OutputComparator {
  double atol = 1e-9;
  double rtol = 1e-6;

  /// Largest absolute elementwise difference; +inf when any element pair
  /// contains a NaN (NaN output can never be acceptable).
  static double linf_distance(std::span<const double> output,
                              std::span<const double> golden) noexcept;

  /// The absolute tolerance implied by a golden output.
  double threshold_for(std::span<const double> golden) const noexcept;

  /// Full classification.  Deterministic rule: any non-finite value in a
  /// *final* output is always SDC, never Masked -- the run completed without
  /// trapping, so nothing would alert the user, yet NaN/Inf output data can
  /// never be acceptable.  (A non-finite value produced *mid-run* trips the
  /// tracer's CrashSignal and is classified Crash by the executor instead;
  /// this rule only governs runs that finished.)
  Outcome classify(std::span<const double> output,
                   std::span<const double> golden) const noexcept;
};

/// A single fault-injection experiment's result record.
struct ExperimentResult {
  Outcome outcome = Outcome::kMasked;
  CrashReason crash_reason = CrashReason::kNone;  // set for Crash outcomes
  double injected_error = 0.0;  // |flip(x) - x| at the injection site
  double output_error = 0.0;    // L-inf distance of final outputs

  /// For Crash outcomes: the dynamic instruction at which the run
  /// "trapped" (produced its first non-finite value), or the injection
  /// site when the corrupted value itself was non-finite.  Undefined for
  /// other outcomes.  crash_site - injection.site is the detection
  /// latency in dynamic instructions.
  std::uint64_t crash_site = 0;

  /// True when the program's ABFT detector rejected the final output.  Set
  /// for kDetected (detector caught an SDC) and for Masked false positives
  /// (detector fired on an output that was actually within tolerance).
  bool detector_fired = false;
};

/// The record of an experiment whose process died or was killed before it
/// could report: `outcome` and `reason` as classified by the isolation
/// layer, injected_error = output_error = +inf, crash_site = 0 (the dead
/// process took that knowledge with it).  The worker pool, the snapshot
/// children and the campaign supervisor all record lethal flips through
/// this one function, so a journal does not depend on which of them ran.
ExperimentResult isolation_result(Outcome outcome, CrashReason reason) noexcept;

/// CrashReason for a child killed by `sig`: kSigSegv, kSigFpe, kSigAbrt,
/// kSigBus, kSigIll, or kOtherSignal for anything else.
CrashReason crash_reason_from_signal(int sig) noexcept;

}  // namespace ftb::fi
