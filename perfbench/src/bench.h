// Shared pieces of the ftb end-to-end benchmark: run options, the result a
// workload fills in, order statistics, and the in-memory span trace behind
// the per-layer split (--trace 1).
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "fi/executor.h"
#include "fi/program.h"

namespace ftb::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}
inline double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}
std::int64_t now_ns();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;   // scratch for journals and artifacts
  std::filesystem::path trace_dir;  // where --trace 1 writes its spans
};

/// What one run reports.  `metrics` holds the end-to-end metrics of an
/// untraced run, or the per-layer metrics of a traced one.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  // failed output checks
  std::map<std::string, double> metrics;

  /// Records a failed output check; any one makes the run incorrect.
  void check(bool ok, const std::string& what);
};

/// Prints one human-readable "name value unit" report line on stdout.
void report(const std::string& name, double value, const char* unit,
            const std::string& detail = {});

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double peak_rss_mb();

/// The CPUs this process may run on (its affinity mask), in order.
std::vector<int> allowed_cpus();
/// Pins the calling thread to `cpus`; threads and processes it starts
/// afterwards inherit the mask.  False (and unpinned) when that fails.
bool pin_to(const std::vector<int>& cpus);

/// Repeats `setup` at least three times and for at least `min_seconds`,
/// appending each wall time to `samples`; the run keeps the last
/// repetition's product.  The median of the samples is the run's setup_s.
template <typename F>
void time_setup(std::vector<double>& samples, F&& setup, double min_seconds) {
  const auto begin = Clock::now();
  for (int done = 0; done < 3 || (seconds_since(begin) < min_seconds && done < 1000); ++done) {
    const auto start = Clock::now();
    setup();
    samples.push_back(seconds_since(start));
  }
}

/// A program plus its golden run and the seeded experiment ids a campaign
/// over it executes.
struct Prepared {
  std::string kernel;
  fi::ProgramPtr program;
  fi::GoldenRun golden;
  std::vector<std::uint64_t> ids;
  double golden_ms = 0.0;
};

/// Builds `kernel` at `preset`, runs it fault-free, and samples `batch`
/// uniform experiment ids from Rng(seed) -- the id set a daemon job with
/// the same seed and batch would run.
Prepared prepare_paper_kernel(const std::string& kernel, std::uint64_t seed,
                              std::uint64_t batch);
Prepared prepare_program(std::string name, fi::ProgramPtr program,
                         std::uint64_t seed, std::uint64_t batch);

/// In-memory span recorder.  Each span has a name whose first dotted part
/// names its layer (fi, campaign, boundary, service, net), a start, an end,
/// a parent, and the pass or job it belongs to.  Disabled traces record
/// nothing.  Thread-safe.
class Trace {
 public:
  static constexpr int kNoParent = -1;
  /// Parent sentinel: the innermost span open on the calling thread.
  static constexpr int kEnclosing = -2;

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  class Span {
   public:
    Span(Trace& trace, const char* name, int parent = kEnclosing);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    int id() const noexcept { return id_; }

   private:
    Trace& trace_;
    int id_ = kNoParent;
  };

  void set_pass(std::uint64_t pass) noexcept { pass_ = pass; }

  /// Records a span measured elsewhere (e.g. from frames seen on the wire)
  /// and returns its id; kNoParent when the trace is disabled.
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent = kNoParent);
  /// Self time per layer: each span's duration minus the part of it that
  /// its child spans cover, summed by layer.
  std::map<std::string, double> layer_self_seconds() const;
  /// Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_json(const std::filesystem::path& path) const;

 private:
  struct Record {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::uint64_t pass = 0;
    std::uint32_t thread = 0;
  };
  int open(const char* name, int parent);
  void close(int id);

  bool enabled_;
  std::uint64_t pass_ = 0;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
};

}  // namespace ftb::perfbench
