// ftb_perfbench: the end-to-end benchmark of ftb's two products, a
// published fault tolerance boundary and answers to boundary queries.
//
//   ftb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work-dir DIR] [--trace-dir DIR] [--commit ID]
//
// Workloads: paper_boundary, long_trace_campaign, query_read,
// query_during_campaign.  The run prints human-readable report lines and,
// last, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; --trace 1 adds the per-layer
// metrics the workload exercises and writes the spans as a Chrome trace.  Exit status is
// 0 when every output check passed, 1 when one failed, 2 on bad arguments,
// and 3 for a build that is not Release (its numbers are not reported).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace ftb::perfbench;
namespace fs = std::filesystem;

const std::map<std::string, std::function<Result(const Options&)>> kWorkloads = {
    {"paper_boundary", run_paper_boundary},
    {"long_trace_campaign", run_long_trace_campaign},
    {"query_read", run_query_read},
    {"query_during_campaign", run_query_during_campaign},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ftb_perfbench: %s\nusage: ftb_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR] "
               "[--commit ID]\n",
               why);
  return 2;
}

void print_result(const Result& result) {
  std::string metrics;
  for (const auto& [name, value] : result.metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", metrics.empty() ? "" : ", ",
                  name.c_str(), value);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.mismatches.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  options.work_dir = ".bench_build/run";
  options.trace_dir = ".bench_build/traces";
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  const auto workload = kWorkloads.find(options.workload);
  if (workload == kWorkloads.end()) return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds) return usage("--seed and --seconds are required");

#ifdef NDEBUG
  constexpr bool kAssertsOff = true;
#else
  constexpr bool kAssertsOff = false;
#endif
  const std::string build_type = FTB_BENCH_BUILD_TYPE;
  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"host_cpus\": %zu, \"load_threads\": %d, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0,
              allowed_cpus().size(), load_threads(), build_type.c_str(),
              FTB_BENCH_COMPILER, commit.c_str());
  if (build_type != "Release" || !kAssertsOff) {
    std::fprintf(stderr, "ftb_perfbench: refusing to report from a %s build\n",
                 build_type.c_str());
    return 3;
  }

  // The library's rebuild pool (util::default_pool) reads its size once,
  // on first use.
  ::setenv("FTB_THREADS", std::to_string(load_threads()).c_str(), 1);

  // Every run works in a directory of its own and leaves nothing behind.
  options.work_dir /= options.workload + "-" + std::to_string(::getpid());
  Result result;
  try {
    fs::create_directories(options.work_dir);
    if (options.trace) fs::create_directories(options.trace_dir);
    Result measured = workload->second(options);
    for (auto& [name, value] : measured.metrics) result.metrics[name] = value;
    result.attempted = measured.attempted;
    result.failed = measured.failed;
    result.mismatches = std::move(measured.mismatches);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftb_perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    result.check(false, e.what());
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  for (auto& [name, value] : result.metrics) {
    if (!std::isfinite(value)) {
      result.check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
  }
  report("fail_frac",
         result.attempted ? static_cast<double>(result.failed) / result.attempted : 0.0,
         "", std::to_string(result.failed) + " of " + std::to_string(result.attempted));
  report("setup_s", result.metrics["setup_s"], "s");
  report("rss_peak_mb", peak_rss_mb(), "MB");
  std::fflush(stdout);
  print_result(result);
  return result.mismatches.empty() ? 0 : 1;
}
