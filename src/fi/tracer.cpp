// Tracer's inline fast paths live in the header; this translation unit holds
// the rare-event path they fall back to, compiled once and kept out of the
// kernels' loops.
#include "fi/tracer.h"

namespace ftb::fi {

double Tracer::step_event(double v, std::uint64_t idx) {
  if (idx >= next_checkpoint_) [[unlikely]] {
    // Before the injection check on purpose: a hook that rearms this
    // tracer with a fault at exactly this index must still fire it below.
    next_checkpoint_ = checkpoint_.reached(checkpoint_.ctx, *this, idx);
    refresh_bounds();
  }
  switch (mode_) {
    case Mode::kCount:
      return v;
    case Mode::kRecord:
      trace_out_->push_back(v);
      return v;
    case Mode::kInject:
      if (!injection_.is_memory_fault() && idx == injection_.site) {
        v = fire(v, idx);
      } else if (fired_ && !std::isfinite(v)) {
        throw CrashSignal{idx};
      }
      return v;
    case Mode::kCompare:
      if (!injection_.is_memory_fault() && idx == injection_.site) {
        v = fire(v, idx);
      } else if (fired_ && !std::isfinite(v)) {
        throw CrashSignal{idx};
      }
      if (fired_ && idx < diffs_.size()) {
        diffs_[idx] = std::fabs(v - golden_[idx]);
      }
      return v;
    case Mode::kCompareStream: {
      const double golden_value = hooks_.next_golden(hooks_.ctx);
      if (!injection_.is_memory_fault() && idx == injection_.site) {
        v = fire(v, idx);
      } else if (fired_ && !std::isfinite(v)) {
        throw CrashSignal{idx};
      }
      if (fired_ && hooks_.observe != nullptr) {
        hooks_.observe(hooks_.ctx, idx, std::fabs(v - golden_value));
      }
      return v;
    }
  }
  return v;  // unreachable
}

void Tracer::trap(std::uint64_t idx) { throw CrashSignal{idx}; }

}  // namespace ftb::fi
