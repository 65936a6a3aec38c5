// The four benchmark workloads.  Each one runs for Options::seconds,
// checks its own outputs, and fills a Result with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <string>
#include <vector>

#include "bench.h"
#include "boundary/boundary.h"
#include "campaign/checkpoint.h"
#include "service/store.h"
#include "util/thread_pool.h"

namespace ftb::perfbench {

/// CG, LU and FFT at --preset paper, each taken from campaign start to a
/// published boundary per pass.
Result run_paper_boundary(const Options& options);
/// Long-trace CG campaigns journalled on each execution backend.
Result run_long_trace_campaign(const Options& options);
/// Open-loop query stream against an in-process ftb_served.
Result run_query_read(const Options& options);
/// The same stream while campaign jobs run back to back on the server.
Result run_query_during_campaign(const Options& options);

inline const std::vector<std::string> kPaperKernels = {"cg", "lu", "fft"};
inline constexpr std::uint64_t kPaperBatch = 4000;
inline constexpr std::uint32_t kFlushEvery = 512;
/// The boundary-rebuild settings every ftb_served job uses (filter on).
inline constexpr boundary::AccumulatorOptions kRebuildOptions{true, 32};

/// Pool workers and rebuild threads (FTB_THREADS) the batch load uses:
/// min(4, CPUs).
int load_threads();

/// Checkpointed campaign options for the worker-pool backend.
campaign::CheckpointOptions pool_campaign(const std::string& journal,
                                          int workers, bool snapshots = false);

/// The library path a daemon job takes, minus the wire: checkpointed pool
/// campaign, filtered rebuild on `pool`, artifact save, store publish.
/// Returns the serialized artifact.
std::string build_and_publish(const Prepared& kernel,
                              const std::filesystem::path& dir, int workers,
                              util::ThreadPool& pool, service::BoundaryStore& store,
                              std::uint64_t seed);

/// Mean nanoseconds per boundary::predict_flip over seeded flips.
double probe_predict_ns(const boundary::FaultToleranceBoundary& boundary,
                        const fi::GoldenRun& golden, std::uint64_t seed);

/// Bytes of a file, or empty when it cannot be read.
std::string read_file(const std::filesystem::path& path);

}  // namespace ftb::perfbench
