// Ablation for the paper's Section 5 "Overhead" discussion: the analysis
// "load[s] the entire state into the memory ... which can result in
// substantial memory overhead for a large-scale application".
//
// We compare the standard buffered pipeline (golden trace + one diff buffer
// resident, 16 bytes per dynamic instruction) against the low-memory
// pipeline of fi/lowmem.h (Gorilla-compressed golden trace + streaming
// comparison, no O(D) buffers) on identical samples:
//
//   * memory: raw vs compressed golden-trace bytes per kernel,
//   * fidelity: the resulting boundary thresholds are bit-identical,
//   * cost: wall-clock ratio of the two pipelines (streaming decodes the
//     golden value per step and reruns masked experiments, so it trades
//     time for memory -- exactly the "computation duplication" trade the
//     paper proposes).
#include "common/bench_common.h"

#include <chrono>
#include <cmath>
#include <vector>

#include "boundary/accumulator.h"
#include "campaign/inference.h"
#include "fi/lowmem.h"
#include "util/stats.h"

namespace {

using namespace ftb;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const bench::BenchContext context = bench::BenchContext::from_cli(cli);
  const double fraction = cli.get_double("fraction", 0.02);
  bench::print_banner(
      "Ablation -- golden-trace memory: buffered vs compressed streaming",
      "Same samples through the standard pipeline and the low-memory one\n"
      "(Gorilla-compressed golden trace + streaming compare).",
      context);

  util::ThreadPool& pool = util::default_pool();
  util::Table table({"Name", "DynInstrs", "trace raw", "trace compressed",
                     "ratio", "boundary identical", "time lowmem/std"});

  for (const std::string& name : context.kernel_names) {
    const bench::PreparedKernel kernel =
        bench::prepare_kernel(name, context.preset);
    const fi::GoldenRun& golden = kernel.golden;
    const fi::CompressedGoldenTrace compressed =
        fi::CompressedGoldenTrace::from(golden);

    // Standard pipeline.
    campaign::InferenceOptions options;
    options.sample_fraction = fraction;
    options.seed = context.seed;
    options.filter = true;
    const auto standard_start = Clock::now();
    const campaign::InferenceResult standard =
        campaign::infer_uniform(*kernel.program, golden, options, pool);
    const double standard_seconds = seconds_since(standard_start);

    // Low-memory pipeline over the same experiment ids (two passes).
    const auto lowmem_start = Clock::now();
    // Same two phases as campaign::accumulate_records: every injection
    // first, then the masked replays.
    boundary::BoundaryAccumulator accumulator(golden.trace.size(),
                                              {options.filter});
    std::vector<campaign::ExperimentId> masked;
    for (const campaign::ExperimentId id : standard.sampled_ids) {
      const fi::ExperimentResult outcome = fi::run_injected_lowmem(
          *kernel.program, compressed, campaign::injection_of(id));
      accumulator.record_injection(campaign::site_of(id),
                                   campaign::bit_of(id), outcome.outcome,
                                   outcome.injected_error);
      if (outcome.outcome == fi::Outcome::kMasked) masked.push_back(id);
    }
    for (const campaign::ExperimentId id : masked) {
      (void)fi::run_injected_compare_lowmem(
          *kernel.program, compressed, campaign::injection_of(id),
          [&](std::uint64_t site, double error) {
            accumulator.record_masked_value(site, error);
          });
    }
    const boundary::FaultToleranceBoundary lowmem_boundary =
        accumulator.finalize();
    const double lowmem_seconds = seconds_since(lowmem_start);

    bool identical = lowmem_boundary.sites() == standard.boundary.sites();
    for (std::size_t i = 0; identical && i < lowmem_boundary.sites(); ++i) {
      identical = lowmem_boundary.threshold(i) ==
                  standard.boundary.threshold(i);
    }

    table.add_row(
        {name,
         util::format("%llu", static_cast<unsigned long long>(
                                  golden.dynamic_instructions())),
         util::format("%zu B", compressed.raw_bytes()),
         util::format("%zu B", compressed.compressed_bytes()),
         util::format("%.2fx", compressed.compression_ratio()),
         identical ? "yes" : "NO",
         util::format("%.2fx", standard_seconds > 0.0
                                   ? lowmem_seconds / standard_seconds
                                   : 0.0)});
  }

  bench::print_table(table, context, "memory-overhead trade (Section 5)");
  return 0;
}
