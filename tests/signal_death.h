// The CrashReason a worker's fatal signal is recorded with in this build.
// Under AddressSanitizer or ThreadSanitizer the runtime catches SIGSEGV and
// SIGFPE itself, prints a report and exits nonzero, so the process-isolation
// layer sees an abnormal exit instead of the signal.  Tests that expect an
// exact signal reason compare against signal_death(reason).
#pragma once

#include "fi/outcome.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FTB_TEST_SANITIZED_SIGNALS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FTB_TEST_SANITIZED_SIGNALS 1
#endif
#endif

namespace ftb::test_support {

constexpr fi::CrashReason signal_death(fi::CrashReason reason) noexcept {
#ifdef FTB_TEST_SANITIZED_SIGNALS
  (void)reason;
  return fi::CrashReason::kAbnormalExit;
#else
  return reason;
#endif
}

}  // namespace ftb::test_support
