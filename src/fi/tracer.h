// The dynamic-instruction tracer: this library's stand-in for the paper's
// compiler-level instrumentation.  Kernels thread a Tracer through their
// computation and pass every produced floating-point *data element* through
// Tracer::step(), which
//
//   * numbers dynamic instructions 0, 1, 2, ... (the paper's injection
//     sites),
//   * in Record mode captures the golden trace,
//   * in Inject mode applies a fault (bit flip or additive perturbation) at
//     one chosen site,
//   * in Compare mode additionally streams |x_i' - x_i| against a golden
//     trace (the error-propagation data of paper Section 2.2),
//   * simulates a "crash" by throwing CrashSignal the moment any produced
//     value is non-finite (the NaN-exception termination of Section 2.1).
//
// Kernels must be deterministic and free of data-dependent control flow so
// fault-free and faulty runs execute identical dynamic-instruction
// sequences; the executor verifies the step counts match.
//
// Hot-path contract.  step() is inlined into every kernel loop, so it only
// handles the common cases and sends the rest to the out-of-line
// step_event(), which carries the full per-mode semantics.  Two bounds pick
// the case:
//
//   * quiet_until_: steps below it return v untouched.  It is
//     next_checkpoint_ in Count mode; min(next_checkpoint_, injection.site)
//     in Inject/Compare mode before the fault fires (next_checkpoint_ alone
//     for a memory fault, which fires in touch()); 0 otherwise.
//   * fired_until_: after the fault fires in Inject/Compare mode, steps
//     below it run the crash check (and the Compare-mode diff store)
//     inline.  It is next_checkpoint_, capped at diffs_.size() in Compare
//     mode; 0 otherwise.
//
// Record mode appends inline below next_checkpoint_; everything else --
// the injection site, checkpoint hooks, CompareStream, steps past the diff
// buffer -- is step_event().  The bounds are a cache of (mode, fired_,
// injection_, next_checkpoint_): anything that changes one of those must
// call refresh_bounds().  Today that is the constructors and factories,
// fire(), touch() when a memory fault fires, join(), arm_checkpoint_hook(),
// rearm(), and the places a checkpoint hook returns (step_event, shard).
// Tracer::Shard::step is not part of this scheme; it reads the parent's
// state directly.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fi/fpbits.h"

namespace ftb::fi {

/// A named program phase starting at a dynamic-instruction index.  Kernels
/// announce phases through Tracer::phase(); the golden run records them so
/// reports can aggregate per source-level region ("setup", "iterations",
/// ...) -- the paper's Figure 4 discussion is phrased entirely in these
/// terms.
struct PhaseMark {
  std::uint64_t begin = 0;
  std::string name;

  friend bool operator==(const PhaseMark&, const PhaseMark&) = default;
};

/// Thrown by Tracer::step to abort an experiment run that produced a
/// non-finite value, simulating an abnormal termination.  Executors catch
/// it; it never escapes the library.
struct CrashSignal {
  std::uint64_t site = 0;  // dynamic instruction where the run "trapped"
};

/// Describes the fault applied at one dynamic instruction (Target::kTrace)
/// or one word of live program state (Target::kMemory; see Tracer::touch).
struct Injection {
  enum class Kind : std::uint8_t {
    kBitFlip,   // flip `bit` of the produced value (the paper's fault model)
    kAddDelta,  // add `operand` (used by the Section 5 monotonicity studies)
    kSetValue,  // replace with `operand` (tests)
    kXorMask,   // XOR the bit pattern with `mask` (multi-bit fault models)
  };

  enum class Target : std::uint8_t {
    kTrace,   // fault the value produced at dynamic instruction `site`
    kMemory,  // fault word `site` of the `touch_point`-th Tracer::touch()
              // span: a memory-resident fault between program phases
  };

  std::uint64_t site = 0;
  Kind kind = Kind::kBitFlip;
  int bit = 0;
  double operand = 0.0;
  std::uint64_t mask = 0;
  Target target = Target::kTrace;
  std::uint32_t touch_point = 0;  // kMemory only: which touch() call

  static Injection bit_flip(std::uint64_t site, int bit) noexcept {
    return {site, Kind::kBitFlip, bit, 0.0, 0};
  }
  static Injection add_delta(std::uint64_t site, double delta) noexcept {
    return {site, Kind::kAddDelta, 0, delta, 0};
  }
  static Injection set_value(std::uint64_t site, double value) noexcept {
    return {site, Kind::kSetValue, 0, value, 0};
  }
  /// Generalised bit fault: flips every set bit of `mask` at once.  A
  /// single-bit mask is identical to bit_flip; two set bits model the
  /// double-bit upsets that ECC scrubbing can miss.
  static Injection xor_mask(std::uint64_t site, std::uint64_t mask) noexcept {
    return {site, Kind::kXorMask, 0, 0.0, mask};
  }
  static Injection double_bit_flip(std::uint64_t site, int bit_a,
                                   int bit_b) noexcept {
    return xor_mask(site, (std::uint64_t{1} << bit_a) |
                              (std::uint64_t{1} << bit_b));
  }
  /// Memory-resident fault: XOR every set bit of `mask` into word `word` of
  /// the span passed to the `touch_point`-th Tracer::touch() call.  A
  /// single-bit mask models a DRAM flip the kernel reads back later; a
  /// contiguous multi-bit mask models a burst upset (fi/memfault.h).
  static Injection mem_xor(std::uint32_t touch_point, std::uint64_t word,
                           std::uint64_t mask) noexcept {
    Injection injection{word, Kind::kXorMask, 0, 0.0, mask};
    injection.target = Target::kMemory;
    injection.touch_point = touch_point;
    return injection;
  }

  bool is_memory_fault() const noexcept { return target == Target::kMemory; }

  double apply(double v) const noexcept {
    switch (kind) {
      case Kind::kBitFlip:
        return flip_bit(v, bit);
      case Kind::kAddDelta:
        return v + operand;
      case Kind::kSetValue:
        return operand;
      case Kind::kXorMask:
        return from_bits(to_bits(v) ^ mask);
    }
    return v;
  }
};

class Tracer {
 public:
  /// Sentinel for "no checkpoint armed" (see arm_checkpoint_hook).
  static constexpr std::uint64_t kNoCheckpoint = ~std::uint64_t{0};

  /// Callback armed by the snapshot fork-server (fi/snapshot.h).  `reached`
  /// is invoked from step() the first time the dynamic-instruction index
  /// reaches the armed checkpoint and returns the next index to arm (or
  /// kNoCheckpoint to disarm).  The hook may fork(): in the child it may
  /// rearm() the tracer before returning, which is how a snapshot
  /// experiment resumes the paused execution with a real fault armed.  Raw
  /// function pointers keep std::function off the hot path, mirroring
  /// StreamHooks.
  struct CheckpointHook {
    void* ctx = nullptr;
    std::uint64_t (*reached)(void* ctx, Tracer& tracer,
                             std::uint64_t index) = nullptr;
  };

  /// Counts dynamic instructions only (used to size golden structures).
  static Tracer counter() noexcept { return Tracer(Mode::kCount); }

  /// Appends every produced value to `trace` (golden run).  When `phases`
  /// is given, Tracer::phase() announcements are recorded into it; when
  /// `touch_sizes` is given, the span length of every Tracer::touch() call
  /// is recorded (sizing the memory-resident fault space, fi/memfault.h).
  static Tracer recorder(std::vector<double>& trace,
                         std::vector<PhaseMark>* phases = nullptr,
                         std::vector<std::uint64_t>* touch_sizes = nullptr) noexcept {
    Tracer t(Mode::kRecord);
    t.trace_out_ = &trace;
    t.phases_out_ = phases;
    t.touch_sizes_out_ = touch_sizes;
    return t;
  }

  /// Applies `injection` at its site; throws CrashSignal on non-finite
  /// values from the injection site onward.
  static Tracer injector(const Injection& injection) noexcept {
    Tracer t(Mode::kInject);
    t.injection_ = injection;
    t.refresh_bounds();
    return t;
  }

  /// Like injector(), and additionally writes the propagated absolute error
  /// |x_i' - x_i| into diffs[i] for every site i >= injection.site.  `diffs`
  /// must have golden.size() elements and be zero-initialised by the caller.
  static Tracer comparator(const Injection& injection,
                           std::span<const double> golden,
                           std::span<double> diffs) noexcept {
    assert(diffs.size() == golden.size());
    Tracer t(Mode::kCompare);
    t.injection_ = injection;
    t.golden_ = golden;
    t.diffs_ = diffs;
    t.refresh_bounds();
    return t;
  }

  /// Low-memory comparison (the paper's Section 5 "Overhead" direction):
  /// instead of holding the golden trace in memory, the golden value for
  /// each step is pulled from a sequential source and the propagated error
  /// streamed to an observer, so no O(D) buffers exist.
  ///
  ///   next_golden(ctx) -> the golden value for the current step,
  ///   observe(ctx, site, propagated_abs_error) for every site >= the
  ///   injection site.
  ///
  /// Raw function pointers keep std::function off the hot path.
  struct StreamHooks {
    void* ctx = nullptr;
    double (*next_golden)(void* ctx) = nullptr;
    void (*observe)(void* ctx, std::uint64_t site, double error) = nullptr;
  };

  static Tracer stream_comparator(const Injection& injection,
                                  StreamHooks hooks) noexcept {
    assert(hooks.next_golden != nullptr);
    Tracer t(Mode::kCompareStream);
    t.injection_ = injection;
    t.hooks_ = hooks;
    return t;
  }

  /// The hot path: every kernel FP production flows through here.
  /// Trace-target injections fire when the dynamic-instruction index hits
  /// the injection site; once any fault has fired (trace or memory), a
  /// non-finite produced value simulates a trap via CrashSignal.
  /// Only the common cases run here (the hot-path contract at the top of
  /// this file); they are exact shortcuts of step_event().  Forced inline:
  /// a call per dynamic instruction is the cost this layout removes, and CI
  /// fails when a kernel object still calls it.
  [[gnu::always_inline]] double step(double v) {
    const std::uint64_t idx = index_++;
    if (idx < quiet_until_) [[likely]] return v;
    if (idx < fired_until_) [[likely]] {
      if (!(std::fabs(v) <= std::numeric_limits<double>::max())) [[unlikely]] {
        trap(idx);  // NaN or +-inf, exactly !std::isfinite(v)
      }
      if (mode_ == Mode::kCompare) diffs_[idx] = std::fabs(v - golden_[idx]);
      return v;
    }
    if (mode_ == Mode::kRecord && idx < next_checkpoint_) {
      trace_out_->push_back(v);
      return v;
    }
    return step_event(v, idx);
  }

  /// Announces live program state (a matrix/vector span) at a phase
  /// boundary.  Consumes no dynamic-instruction index.  In Record mode the
  /// span's length is captured (when the recorder asked for touch sizes);
  /// when armed with a memory-target injection whose touch_point matches,
  /// the fault is applied to the named word *in place*.  A corrupted word
  /// that becomes non-finite does not trap here -- state is data, not a
  /// produced value -- the crash happens at the first non-finite value the
  /// kernel later *produces* from it.
  void touch(std::span<double> data) {
    const std::uint32_t point = touch_index_++;
    if (mode_ == Mode::kCount || mode_ == Mode::kRecord) {
      if (touch_sizes_out_ != nullptr) touch_sizes_out_->push_back(data.size());
      return;
    }
    if (injection_.is_memory_fault() && !fired_ &&
        point == injection_.touch_point && injection_.site < data.size()) {
      double& word = data[injection_.site];
      fired_ = true;
      refresh_bounds();
      original_value_ = word;
      const double corrupted = injection_.apply(word);
      injected_error_ = std::isfinite(corrupted)
                            ? std::fabs(corrupted - word)
                            : std::numeric_limits<double>::infinity();
      word = corrupted;
    }
  }

  // ---- Deterministic parallel tracing --------------------------------------
  // A threaded kernel partitions each parallel region into per-thread shards
  // with *precomputed* step counts (the region's work split is fixed by the
  // thread count, never by data).  Shard creation pre-assigns each shard the
  // global index range [begin, begin + steps), so the merged numbering is
  // identical to the serial interleaving thread 0, thread 1, ... regardless
  // of actual thread scheduling.  Shards never touch shared tracer state
  // while threads run: records, fire bookkeeping, and crash sites stay
  // shard-local (Compare-mode diff writes go to disjoint indices) and are
  // folded back -- in shard order -- by join(), which throws the *minimum*
  // crash site so crashes are as deterministic as the serial path.

  class Shard {
   public:
    Shard() = default;

    /// Per-thread hot path; safe to call concurrently with other shards.
    double step(double v) {
      const std::uint64_t idx = begin_ + local_++;
      assert(local_ <= length_);
      switch (parent_->mode_) {
        case Mode::kCount:
          return v;
        case Mode::kRecord:
          recorded_.push_back(v);
          return v;
        case Mode::kInject:
        case Mode::kCompare: {
          const Injection& injection = parent_->injection_;
          const bool trace_target = !injection.is_memory_fault();
          if (trace_target && idx == injection.site) {
            fired_ = true;
            original_value_ = v;
            const double corrupted = injection.apply(v);
            if (!std::isfinite(corrupted)) {
              injected_error_ = std::numeric_limits<double>::infinity();
              crash_site_ = idx;
            } else {
              injected_error_ = std::fabs(corrupted - v);
            }
            v = corrupted;
          } else if (!std::isfinite(v) && crash_site_ > idx &&
                     ((trace_target && idx > injection.site) ||
                      parent_->fired_)) {
            crash_site_ = idx;
          }
          if (parent_->mode_ == Mode::kCompare && crash_site_ == kNoCrash &&
              (fired_ || parent_->fired_ ||
               (trace_target && idx >= injection.site)) &&
              idx < parent_->diffs_.size()) {
            parent_->diffs_[idx] = std::fabs(v - parent_->golden_[idx]);
          }
          return v;
        }
        case Mode::kCompareStream:
          assert(false && "stream comparison cannot be sharded");
          return v;
      }
      return v;  // unreachable
    }

   private:
    friend class Tracer;
    static constexpr std::uint64_t kNoCrash = ~std::uint64_t{0};

    Tracer* parent_ = nullptr;
    std::uint64_t begin_ = 0;
    std::uint64_t length_ = 0;
    std::uint64_t local_ = 0;
    std::uint64_t crash_site_ = kNoCrash;  // min non-finite site seen
    bool fired_ = false;
    double injected_error_ = 0.0;
    double original_value_ = 0.0;
    std::vector<double> recorded_;  // Record mode: this shard's trace slice
  };

  /// Reserves the next `steps` global dynamic-instruction indices for one
  /// shard.  Call once per thread, in thread order, before the parallel
  /// region runs; then run each shard on its thread and join() all shards
  /// (again in thread order) after the threads complete.
  Shard shard(std::uint64_t steps) {
    assert(mode_ != Mode::kCompareStream &&
           "stream comparison cannot be sharded");
    if (index_ >= next_checkpoint_) [[unlikely]] {
      // Sharded regions reserve index ranges in bulk, so a checkpoint that
      // lands inside one fires here, at the region edge, on the calling
      // thread (never on a worker thread -- fork() inside a threaded region
      // would be unsafe).  The hook registers the *actual* index it ran at.
      next_checkpoint_ = checkpoint_.reached(checkpoint_.ctx, *this, index_);
      refresh_bounds();
    }
    Shard s;
    s.parent_ = this;
    s.begin_ = index_;
    s.length_ = steps;
    if (mode_ == Mode::kRecord) s.recorded_.reserve(steps);
    index_ += steps;
    return s;
  }

  /// Folds shard-local state back into the tracer, in shard order, and
  /// throws CrashSignal at the minimum crashing site (matching what the
  /// serial interleaving would have trapped on first).  Each shard must
  /// have produced exactly the step count it declared.
  void join(std::span<Shard> shards) {
    std::uint64_t crash_site = Shard::kNoCrash;
    for (Shard& s : shards) {
      assert(s.local_ == s.length_ &&
             "shard produced a different step count than declared");
      if (mode_ == Mode::kRecord && trace_out_ != nullptr) {
        trace_out_->insert(trace_out_->end(), s.recorded_.begin(),
                           s.recorded_.end());
      }
      if (s.fired_) {
        fired_ = true;
        injected_error_ = s.injected_error_;
        original_value_ = s.original_value_;
      }
      crash_site = std::min(crash_site, s.crash_site_);
    }
    refresh_bounds();
    if (crash_site != Shard::kNoCrash) throw CrashSignal{crash_site};
  }

  /// Announces that the instructions from the current index onward belong
  /// to the named program phase.  Free outside the recording golden run;
  /// kernels may call it unconditionally.
  void phase(std::string_view name) {
    if (phases_out_ != nullptr) {
      phases_out_->push_back({index_, std::string(name)});
    }
  }

  /// Arms `hook` to fire the first time the dynamic-instruction index
  /// reaches `first`.  Pass kNoCheckpoint (the construction default) to
  /// keep the hook off the hot path entirely.
  void arm_checkpoint_hook(CheckpointHook hook, std::uint64_t first) noexcept {
    checkpoint_ = hook;
    next_checkpoint_ = hook.reached != nullptr ? first : kNoCheckpoint;
    refresh_bounds();
  }

  /// Swaps in a different injection mid-run, clearing the fired state.  Only
  /// meaningful from a checkpoint hook in a freshly forked experiment child:
  /// the new fault must not already be behind the execution point (a trace
  /// site below the current index, or a memory fault whose touch point has
  /// already been passed, can never fire).
  void rearm(const Injection& injection) noexcept {
    injection_ = injection;
    fired_ = false;
    injected_error_ = 0.0;
    original_value_ = 0.0;
    refresh_bounds();
  }

  /// Number of dynamic instructions seen so far.
  std::uint64_t steps() const noexcept { return index_; }

  /// True once the injection site has been reached.
  bool fired() const noexcept { return fired_; }

  /// |corrupted - original| at the injection site; +inf when the corrupted
  /// value was non-finite.  Only meaningful after fired().
  double injected_error() const noexcept { return injected_error_; }

  /// Value originally produced at the injection site (pre-corruption).
  double original_value() const noexcept { return original_value_; }

 private:
  enum class Mode : std::uint8_t {
    kCount,
    kRecord,
    kInject,
    kCompare,
    kCompareStream,
  };

  explicit Tracer(Mode mode) noexcept : mode_(mode) { refresh_bounds(); }

  /// Recomputes quiet_until_ and fired_until_ from the mode, the fired
  /// state, the injection and next_checkpoint_.  Every change to any of
  /// those must call it (see the hot-path contract in the header comment).
  void refresh_bounds() noexcept {
    quiet_until_ = 0;
    fired_until_ = 0;
    if (mode_ == Mode::kCount) {
      quiet_until_ = next_checkpoint_;
    } else if (mode_ == Mode::kInject || mode_ == Mode::kCompare) {
      if (!fired_) {
        quiet_until_ = injection_.is_memory_fault()
                           ? next_checkpoint_
                           : std::min(next_checkpoint_, injection_.site);
      } else if (mode_ == Mode::kCompare) {
        fired_until_ = std::min<std::uint64_t>(next_checkpoint_, diffs_.size());
      } else {
        fired_until_ = next_checkpoint_;
      }
    }
  }

  /// The full per-mode semantics of step(), out of line: checkpoint hooks,
  /// the injection site, the stream comparator and every step the inline
  /// fast paths do not cover.
  [[gnu::noinline]] double step_event(double v, std::uint64_t idx);

  /// Throws CrashSignal{idx}; kept cold and out of line so the inline
  /// step() carries no exception-raising code.
  [[noreturn, gnu::cold, gnu::noinline]] static void trap(std::uint64_t idx);

  double fire(double v, std::uint64_t idx) {
    fired_ = true;
    refresh_bounds();
    original_value_ = v;
    const double corrupted = injection_.apply(v);
    if (!std::isfinite(corrupted)) {
      injected_error_ = std::numeric_limits<double>::infinity();
      throw CrashSignal{idx};
    }
    injected_error_ = std::fabs(corrupted - v);
    return corrupted;
  }

  Mode mode_;
  std::uint64_t index_ = 0;
  // The hot-path bounds (refresh_bounds): steps below quiet_until_ are
  // pass-through; steps below fired_until_ take the post-fault fast path.
  std::uint64_t quiet_until_ = 0;
  std::uint64_t fired_until_ = 0;
  std::uint64_t next_checkpoint_ = kNoCheckpoint;
  CheckpointHook checkpoint_{};
  std::uint32_t touch_index_ = 0;
  Injection injection_{};
  bool fired_ = false;
  double injected_error_ = 0.0;
  double original_value_ = 0.0;
  std::vector<double>* trace_out_ = nullptr;
  std::vector<PhaseMark>* phases_out_ = nullptr;
  std::vector<std::uint64_t>* touch_sizes_out_ = nullptr;
  std::span<const double> golden_{};
  std::span<double> diffs_{};
  StreamHooks hooks_{};
};

}  // namespace ftb::fi
