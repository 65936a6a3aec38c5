#include "fi/outcome.h"

#include <cassert>
#include <cmath>
#include <csignal>
#include <limits>

namespace ftb::fi {

const char* to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kMasked:
      return "Masked";
    case Outcome::kSdc:
      return "SDC";
    case Outcome::kCrash:
      return "Crash";
    case Outcome::kHang:
      return "Hang";
    case Outcome::kDetected:
      return "Detected";
  }
  return "?";
}

std::string outcome_name(std::uint64_t raw) {
  if (raw <= static_cast<std::uint64_t>(Outcome::kDetected)) {
    return to_string(static_cast<Outcome>(raw));
  }
  return "unknown(" + std::to_string(raw) + ")";
}

const char* to_string(CrashReason reason) noexcept {
  switch (reason) {
    case CrashReason::kNone:
      return "none";
    case CrashReason::kNonFinite:
      return "non-finite";
    case CrashReason::kControlFlow:
      return "control-flow";
    case CrashReason::kSigSegv:
      return "SIGSEGV";
    case CrashReason::kSigFpe:
      return "SIGFPE";
    case CrashReason::kSigAbrt:
      return "SIGABRT";
    case CrashReason::kSigBus:
      return "SIGBUS";
    case CrashReason::kSigIll:
      return "SIGILL";
    case CrashReason::kOtherSignal:
      return "signal";
    case CrashReason::kAbnormalExit:
      return "abnormal-exit";
    case CrashReason::kQuarantined:
      return "quarantined";
  }
  return "?";
}

bool is_isolation_reason(CrashReason reason) noexcept {
  switch (reason) {
    case CrashReason::kSigSegv:
    case CrashReason::kSigFpe:
    case CrashReason::kSigAbrt:
    case CrashReason::kSigBus:
    case CrashReason::kSigIll:
    case CrashReason::kOtherSignal:
    case CrashReason::kAbnormalExit:
    case CrashReason::kQuarantined:
      return true;
    case CrashReason::kNone:
    case CrashReason::kNonFinite:
    case CrashReason::kControlFlow:
      return false;
  }
  return false;
}

ExperimentResult isolation_result(Outcome outcome,
                                  CrashReason reason) noexcept {
  ExperimentResult result;
  result.outcome = outcome;
  result.crash_reason = reason;
  result.injected_error = std::numeric_limits<double>::infinity();
  result.output_error = std::numeric_limits<double>::infinity();
  result.crash_site = 0;
  return result;
}

CrashReason crash_reason_from_signal(int sig) noexcept {
  switch (sig) {
    case SIGSEGV:
      return CrashReason::kSigSegv;
    case SIGFPE:
      return CrashReason::kSigFpe;
    case SIGABRT:
      return CrashReason::kSigAbrt;
#ifdef SIGBUS
    case SIGBUS:
      return CrashReason::kSigBus;
#endif
    case SIGILL:
      return CrashReason::kSigIll;
    default:
      return CrashReason::kOtherSignal;
  }
}

double OutputComparator::linf_distance(std::span<const double> output,
                                       std::span<const double> golden) noexcept {
  assert(output.size() == golden.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < output.size(); ++i) {
    const double diff = std::fabs(output[i] - golden[i]);
    if (std::isnan(diff)) return std::numeric_limits<double>::infinity();
    if (diff > worst) worst = diff;
  }
  return worst;
}

double OutputComparator::threshold_for(
    std::span<const double> golden) const noexcept {
  double scale = 0.0;
  for (double g : golden) scale = std::fmax(scale, std::fabs(g));
  return atol + rtol * scale;
}

Outcome OutputComparator::classify(std::span<const double> output,
                                   std::span<const double> golden) const noexcept {
  // A run that *finished* with NaN/Inf in its output never trapped, so the
  // corruption is silent: always SDC, never Masked (and not Crash -- crashes
  // are loud by definition; the mid-run CrashSignal path covers those).
  for (double v : output) {
    if (!std::isfinite(v)) return Outcome::kSdc;
  }
  const double distance = linf_distance(output, golden);
  return distance <= threshold_for(golden) ? Outcome::kMasked : Outcome::kSdc;
}

}  // namespace ftb::fi
