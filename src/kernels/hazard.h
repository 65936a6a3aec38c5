// Hazard kernels: workloads whose injected flips can genuinely corrupt
// control flow, built to exercise process isolation (the worker pool in
// fi/sandbox.h, driven by campaign/supervisor.h, with or without snapshots)
// with *real* misbehaviour instead of simulated crashes.
//
// Both kernels deliberately break the library-wide "no data-dependent
// control flow" contract: loop trip counts, array offsets, and integer
// divisors are derived from *traced* values, so a bit flip at those sites
// can
//
//   * spin a loop effectively forever              -> heartbeat/watchdog Hang,
//   * index far outside an array                   -> SIGSEGV in the worker,
//   * drive an integer divisor to zero             -> SIGFPE in the worker,
//   * shift the dynamic-instruction count          -> control-flow Crash.
//
// The fault-free run is still fully deterministic, so golden runs, config
// keys, and outcome classification work unchanged.  NEVER run injected
// experiments on these programs in-process: run them through
// campaign::CampaignSupervisor (CheckpointOptions::use_supervisor, or any
// ftb_analyze backend flag) so a poisoned flip cannot take down the
// campaign.  Control values are chosen with low mantissa bits clear
// (small integers / powers of two), so low-order-mantissa flips perturb
// them by less than one unit and leave control flow intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fi/program.h"

namespace ftb::kernels {

/// Control-flow gauntlet: every round re-derives a loop trip count, a raw
/// array offset, and an integer divisor from traced values.
struct HazardConfig {
  std::size_t n = 16;       // working-set size; must be a power of two
  std::size_t rounds = 2;   // hazard rounds
  std::uint64_t seed = 77;
  double atol = 1e-9;
  double rtol = 1e-6;

  std::string key() const;
};

class HazardProgram final : public fi::Program {
 public:
  explicit HazardProgram(HazardConfig config);

  std::string name() const override { return "hazard"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  std::vector<double> run(fi::Tracer& tracer) const override;

  const HazardConfig& config() const noexcept { return config_; }

  /// Dynamic-instruction indices of the three hazard control values in
  /// round `r` -- the sites whose exponent-bit flips produce hangs
  /// (trip count), SIGSEGV (offset), and SIGFPE (divisor).
  std::uint64_t trip_site(std::size_t round) const noexcept;
  std::uint64_t offset_site(std::size_t round) const noexcept;
  std::uint64_t divisor_site(std::size_t round) const noexcept;

 private:
  HazardConfig config_;
};

/// Convergence-style spin loop: `residual *= decay` until it drops below
/// `target`.  Flipping the decay factor's exponent LSB turns it into
/// exactly 1.0 -- the residual then never shrinks and the run spins
/// forever on perfectly finite values, the purest possible hang.
struct HazardSpinConfig {
  std::size_t n = 8;             // output vector length
  double target = 1e-6;          // convergence threshold
  std::uint64_t spin_guard = std::uint64_t{1} << 50;  // effectively never
  double atol = 1e-9;
  double rtol = 1e-6;

  std::string key() const;
};

class HazardSpinProgram final : public fi::Program {
 public:
  explicit HazardSpinProgram(HazardSpinConfig config);

  std::string name() const override { return "hazard_spin"; }
  std::string config_key() const override { return config_.key(); }
  fi::OutputComparator comparator() const override {
    return {config_.atol, config_.rtol};
  }

  std::vector<double> run(fi::Tracer& tracer) const override;

  const HazardSpinConfig& config() const noexcept { return config_; }

  /// Site of the decay factor (site 1); flipping its exponent LSB (bit 52)
  /// yields decay == 1.0 and a guaranteed hang.
  static constexpr std::uint64_t kDecaySite = 1;

 private:
  HazardSpinConfig config_;
};

}  // namespace ftb::kernels
