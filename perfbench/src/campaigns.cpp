// paper_boundary and long_trace_campaign: the two batch workloads.
//
// paper_boundary is dominated by the Algorithm 1 replay and the filtered
// accumulator (the boundary rebuild); long_trace_campaign does no rebuild
// at all, so per-experiment execution on each backend does all its work.
// One exercises the rebuild, the other bypasses it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>

#include "boundary/accumulator.h"
#include "boundary/predictor.h"
#include "boundary/serialize.h"
#include "campaign/campaign.h"
#include "campaign/log.h"
#include "fi/snapshot.h"
#include "kernels/cg.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ftb::perfbench {

namespace fs = std::filesystem;

int load_threads() {
  return static_cast<int>(std::clamp<std::size_t>(allowed_cpus().size(), 1, 4));
}

campaign::CheckpointOptions pool_campaign(const std::string& journal,
                                          int workers, bool snapshots) {
  // The settings JobRunner uses for a daemon job, with the pool backend.
  campaign::CheckpointOptions options;
  options.path = journal;
  options.flush_every = kFlushEvery;
  options.use_supervisor = true;
  options.supervisor.pool.workers = workers;
  options.supervisor.pool.heartbeat_timeout_ms = campaign::kFallbackDeadlineMs;
  options.supervisor.pool.use_snapshots = snapshots;
  options.supervisor.pool.snapshot.timeout_ms = campaign::kFallbackDeadlineMs;
  options.supervisor.allow_in_process_fallback = false;
  return options;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string build_and_publish(const Prepared& kernel, const fs::path& dir,
                              int workers, util::ThreadPool& pool,
                              service::BoundaryStore& store, std::uint64_t seed) {
  const fs::path journal = dir / (kernel.kernel + ".clog");
  const fs::path artifact = dir / (kernel.kernel + ".boundary");
  fs::remove(journal);
  const campaign::CheckpointRunResult run = campaign::run_campaign_checkpointed(
      *kernel.program, kernel.golden, kernel.ids,
      pool_campaign(journal.string(), workers));
  const boundary::FaultToleranceBoundary built = campaign::boundary_from_log(
      *kernel.program, kernel.golden, run.log, kRebuildOptions, pool);
  if (!boundary::save_to_file(built, kernel.program->config_key(),
                              artifact.string())) {
    throw std::runtime_error("cannot write " + artifact.string());
  }
  std::string error;
  if (!store.publish({kernel.kernel, "paper", seed}, built, &error)) {
    throw std::runtime_error("publish failed: " + error);
  }
  return read_file(artifact);
}

double probe_predict_ns(const boundary::FaultToleranceBoundary& boundary,
                        const fi::GoldenRun& golden, std::uint64_t seed) {
  constexpr int kFlips = 1 << 20;
  util::Rng rng(seed);
  std::vector<std::pair<std::size_t, int>> flips(kFlips);
  for (auto& [site, bit] : flips) {
    site = static_cast<std::size_t>(rng.next_below(boundary.sites()));
    bit = static_cast<int>(rng.next_below(64));
  }
  std::uint64_t masked = 0;
  const auto begin = Clock::now();
  for (const auto& [site, bit] : flips) {
    masked += boundary::predict_flip(boundary, site, golden.trace[site], bit) ==
              fi::Outcome::kMasked;
  }
  static std::atomic<std::uint64_t> sink;
  sink.store(masked, std::memory_order_relaxed);  // keeps the loop alive
  return seconds_since(begin) * 1e9 / kFlips;
}

namespace {

/// Mean microseconds per in-process experiment (classify-only and with
/// propagation capture) over the first `count` ids of a workload.
struct ExecutorProbe {
  double run_injected_us = 0.0;
  double compare_us = 0.0;
};

ExecutorProbe probe_executor(const Prepared& kernel, std::size_t count,
                             Trace& trace) {
  count = std::min(count, kernel.ids.size());
  ExecutorProbe probe;
  if (count == 0) return probe;
  std::vector<double> diffs(kernel.golden.trace.size());
  auto begin = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    Trace::Span span(trace, "fi.run_injected");
    fi::run_injected(*kernel.program, kernel.golden,
                     campaign::injection_of(kernel.ids[i]));
  }
  probe.run_injected_us = seconds_since(begin) * 1e6 / static_cast<double>(count);
  begin = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    Trace::Span span(trace, "fi.run_injected_compare");
    fi::run_injected_compare(*kernel.program, kernel.golden,
                             campaign::injection_of(kernel.ids[i]), diffs);
  }
  probe.compare_us = seconds_since(begin) * 1e6 / static_cast<double>(count);
  return probe;
}

double probe_log_save_ms(const campaign::CampaignLog& log, const fs::path& path) {
  const auto begin = Clock::now();
  if (!log.save(path.string())) throw std::runtime_error("cannot save " + path.string());
  const double ms = seconds_since(begin) * 1e3;
  fs::remove(path);
  return ms;
}

void add_supervisor_stats(Result& result, const campaign::SupervisorStats& s) {
  result.metrics["campaign.supervisor.chunks"] += static_cast<double>(s.chunks_dispatched);
  result.metrics["campaign.supervisor.requeued"] += static_cast<double>(s.experiments_requeued);
  result.metrics["campaign.supervisor.fallback_experiments"] +=
      static_cast<double>(s.fallback_experiments);
  result.metrics["campaign.supervisor.worker_deaths"] += static_cast<double>(s.worker_deaths);
}

/// Puts every layer's self time per pass into the per-layer metrics.
void add_layer_self_times(Result& result, const Trace& trace, double passes) {
  for (const auto& [layer, seconds] : trace.layer_self_seconds()) {
    result.metrics[layer + ".self_s"] = seconds / std::max(1.0, passes);
  }
}

// ---------------------------------------------------------------------------
// paper_boundary
// ---------------------------------------------------------------------------

/// One kernel taken from campaign start to a published boundary.
struct KernelPass {
  double total_s = 0.0;
  double campaign_s = 0.0;
  double rebuild_s = 0.0;  // boundary_from_log, or the traced parts' sum
  double record_injection_s = 0.0;
  double compare_s = 0.0;
  double accumulate_s = 0.0;
  double finalize_s = 0.0;
  double serialize_s = 0.0;
  double save_s = 0.0;
  double publish_s = 0.0;
  std::uint64_t flushes = 0;
  std::uint64_t masked = 0;
  std::uint64_t filter_rejected = 0;
  std::uint64_t prop_evicted = 0;
  std::uint64_t nonfinite_skipped = 0;
  campaign::SupervisorStats supervisor;
  std::string artifact;  // bytes of the saved artifact
};

/// The traced rebuild: boundary_from_log's steps through the public parts,
/// each under its own span, so the replay and the accumulator separate.
boundary::FaultToleranceBoundary traced_rebuild(const Prepared& kernel,
                                                const campaign::CampaignLog& log,
                                                Trace& trace, KernelPass& pass) {
  Trace::Span rebuild(trace, "campaign.rebuild");
  boundary::BoundaryAccumulator accumulator(kernel.golden.trace.size(),
                                            kRebuildOptions);
  std::vector<campaign::ExperimentId> masked;
  auto begin = Clock::now();
  {
    Trace::Span span(trace, "boundary.record_injection");
    for (const campaign::ExperimentRecord& record : log.records()) {
      if (!campaign::is_classic(record.id)) continue;
      accumulator.record_injection(campaign::site_of(record.id),
                                   campaign::bit_of(record.id),
                                   record.result.outcome,
                                   record.result.injected_error);
      if (record.result.outcome == fi::Outcome::kMasked) masked.push_back(record.id);
    }
  }
  pass.record_injection_s = seconds_since(begin);
  begin = Clock::now();
  {
    Trace::Span compare(trace, "campaign.run_experiments_compare");
    const int parent = compare.id();
    std::int64_t accumulate_ns = 0;  // the consumer runs serialised
    const auto consume = [&](const campaign::ExperimentRecord&,
                             std::span<const double> diffs) {
      Trace::Span span(trace, "boundary.record_masked_propagation", parent);
      const std::int64_t start = now_ns();
      accumulator.record_masked_propagation(diffs);
      accumulate_ns += now_ns() - start;
    };
    campaign::run_experiments_compare(*kernel.program, kernel.golden, masked,
                                      util::default_pool(), consume);
    pass.accumulate_s = static_cast<double>(accumulate_ns) * 1e-9;
  }
  pass.compare_s = seconds_since(begin);
  begin = Clock::now();
  boundary::FaultToleranceBoundary built;
  {
    Trace::Span span(trace, "boundary.finalize");
    built = accumulator.finalize();
  }
  pass.finalize_s = seconds_since(begin);
  pass.rebuild_s = pass.record_injection_s + pass.compare_s + pass.finalize_s;
  pass.masked = masked.size();
  pass.filter_rejected = accumulator.filter_rejected();
  pass.prop_evicted = accumulator.prop_evicted();
  pass.nonfinite_skipped = accumulator.nonfinite_skipped();
  return built;
}

KernelPass run_kernel_pass(const Prepared& kernel, const fs::path& dir,
                           service::BoundaryStore& store, std::uint64_t seed,
                           Trace* trace) {
  const fs::path journal = dir / (kernel.kernel + ".clog");
  const fs::path artifact = dir / (kernel.kernel + ".boundary");
  const std::string config = kernel.program->config_key();
  fs::remove(journal);
  fs::remove(artifact);
  Trace disabled(false);
  Trace& t = trace != nullptr ? *trace : disabled;

  KernelPass pass;
  const auto start = Clock::now();
  campaign::CheckpointRunResult run;
  {
    Trace::Span span(t, "campaign.run_checkpointed");
    run = campaign::run_campaign_checkpointed(
        *kernel.program, kernel.golden, kernel.ids,
        pool_campaign(journal.string(), load_threads()));
  }
  auto mark = Clock::now();
  pass.campaign_s = seconds_between(start, mark);

  boundary::FaultToleranceBoundary built;
  if (trace != nullptr) {
    built = traced_rebuild(kernel, run.log, t, pass);
    mark = Clock::now();
    Trace::Span span(t, "boundary.serialize");
    pass.artifact = boundary::serialize(built, config);
    pass.serialize_s = seconds_since(mark);
  } else {
    built = campaign::boundary_from_log(*kernel.program, kernel.golden, run.log,
                                        kRebuildOptions, util::default_pool());
    pass.rebuild_s = seconds_since(mark);
  }
  mark = Clock::now();
  {
    Trace::Span span(t, "boundary.save_to_file");
    if (!boundary::save_to_file(built, config, artifact.string())) {
      throw std::runtime_error("cannot write " + artifact.string());
    }
  }
  pass.save_s = seconds_since(mark);
  mark = Clock::now();
  {
    Trace::Span span(t, "service.store.publish");
    std::string error;
    if (!store.publish({kernel.kernel, "paper", seed}, built, &error)) {
      throw std::runtime_error("publish failed: " + error);
    }
  }
  pass.publish_s = seconds_since(mark);
  pass.total_s = seconds_since(start);

  pass.flushes = run.flushes;
  pass.supervisor = run.supervisor_stats;
  if (trace == nullptr) pass.artifact = read_file(artifact);
  return pass;
}

/// Output checks for one kernel pass: the artifact on disk reloads with its
/// config key, equals what the store serves, and equals the first pass's.
void check_kernel_pass(Result& result, const Prepared& kernel,
                       const KernelPass& pass, const fs::path& dir,
                       const service::BoundaryStore& store, std::uint64_t seed,
                       std::string& reference) {
  const std::string config = kernel.program->config_key();
  const std::string on_disk = read_file(dir / (kernel.kernel + ".boundary"));
  std::string error;
  const auto artifact = boundary::deserialize_artifact(on_disk, config, &error);
  result.check(artifact.has_value(),
               kernel.kernel + " artifact does not reload: " + error);
  const auto entry = store.find(service::StoreKey{kernel.kernel, "paper", seed}.str());
  result.check(entry != nullptr, kernel.kernel + " missing from the store");
  if (artifact.has_value() && entry != nullptr) {
    result.check(boundary::serialize(artifact->boundary, config) ==
                     boundary::serialize(entry->boundary, entry->config_key),
                 kernel.kernel + " artifact differs from the store entry");
  }
  result.check(pass.artifact == on_disk,
               kernel.kernel + " serialized boundary differs from the saved artifact");
  if (reference.empty()) reference = on_disk;
  result.check(on_disk == reference,
               kernel.kernel + " boundary differs between passes");
}

}  // namespace

Result run_paper_boundary(const Options& options) {
  Result result;
  const fs::path dir = options.work_dir;
  // Set-up is timed three times before the passes and three times after
  // each, so that its median spans the whole run rather than its first
  // half-second.
  const auto prepare = [&] {
    std::vector<Prepared> prepared;
    for (const std::string& name : kPaperKernels) {
      prepared.push_back(prepare_paper_kernel(name, options.seed, kPaperBatch));
    }
    return prepared;
  };
  std::vector<Prepared> kernels;
  std::vector<double> setup_s;
  time_setup(setup_s, [&] { kernels = prepare(); }, 0.0);
  service::BoundaryStore store;
  Trace trace(options.trace);
  std::vector<std::string> reference(kernels.size());

  // A traced run alternates untraced and traced passes so that the tracing
  // overhead and the rebuild split compare like with like.
  std::vector<double> pass_s, traced_pass_s, untraced_rebuild_s;
  std::map<std::string, std::vector<double>> kernel_s, layer;
  std::map<std::string, std::vector<double>> kernel_rebuild_s;
  const auto begin = Clock::now();
  for (std::uint64_t pass = 0; pass < 2 || seconds_since(begin) < options.seconds;
       ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    trace.set_pass(pass);
    double total = 0.0;
    std::map<std::string, double> sums;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      ++result.attempted;
      KernelPass kp;
      try {
        kp = run_kernel_pass(kernels[k], dir, store, options.seed,
                             traced ? &trace : nullptr);
      } catch (const std::exception& e) {
        ++result.failed;
        std::fprintf(stderr, "perfbench: %s pass failed: %s\n",
                     kernels[k].kernel.c_str(), e.what());
        continue;
      }
      check_kernel_pass(result, kernels[k], kp, dir, store, options.seed,
                        reference[k]);
      total += kp.total_s;
      if (!traced) {
        kernel_s[kernels[k].kernel].push_back(kp.total_s);
        kernel_rebuild_s[kernels[k].kernel].push_back(kp.rebuild_s);
        sums["rebuild"] += kp.rebuild_s;
        continue;
      }
      sums["classify"] += kp.campaign_s;
      sums["flushes"] += static_cast<double>(kp.flushes);
      sums["parts"] += kp.rebuild_s;
      sums["replay"] += kp.compare_s - kp.accumulate_s;
      sums["masked"] += static_cast<double>(kp.masked);
      sums["record_injection"] += kp.record_injection_s;
      sums["accumulate"] += kp.accumulate_s;
      sums["finalize"] += kp.finalize_s;
      sums["serialize"] += kp.serialize_s;
      sums["save"] += kp.save_s;
      sums["publish"] += kp.publish_s;
      sums["bytes"] += static_cast<double>(kp.artifact.size());
      sums["journal_bytes"] +=
          static_cast<double>(fs::file_size(dir / (kernels[k].kernel + ".clog")));
      sums["filter_rejected"] += static_cast<double>(kp.filter_rejected);
      sums["prop_evicted"] += static_cast<double>(kp.prop_evicted);
      sums["nonfinite"] += static_cast<double>(kp.nonfinite_skipped);
      if (pass == 1) add_supervisor_stats(result, kp.supervisor);
    }
    (traced ? traced_pass_s : pass_s).push_back(total);
    if (!traced) untraced_rebuild_s.push_back(sums["rebuild"]);
    time_setup(setup_s, prepare, 0.0);
    if (traced) {
      for (const auto& [name, value] : sums) layer[name].push_back(value);
    }
  }

  std::printf("paper_boundary: %zu untraced passes of cg+lu+fft, %llu "
              "experiments per kernel\n",
              pass_s.size(), static_cast<unsigned long long>(kPaperBatch));
  for (const std::string& name : kPaperKernels) {
    const double total = median(kernel_s[name]);
    const double rebuild = median(kernel_rebuild_s[name]);
    report("boundary_s." + name, total, "s",
           "rebuild " + std::to_string(rebuild) + " s (" +
               std::to_string(static_cast<int>(100 * rebuild / total)) + "%)");
  }
  const double experiments = static_cast<double>(kPaperBatch * kernels.size());
  result.metrics["setup_s"] = median(setup_s);
  result.metrics["latency_p50_ms"] = median(pass_s) * 1e3;
  result.metrics["throughput_per_s"] = experiments / median(pass_s);
  if (!options.trace) return result;
  // Self time per layer over the traced passes only, before the probes
  // below add spans of their own.
  add_layer_self_times(result, trace, static_cast<double>(traced_pass_s.size()));

  // Per-layer metrics: medians over traced passes of per-pass sums.
  const auto med = [&](const char* name) { return median(layer[name]); };
  auto& m = result.metrics;
  double golden_ms = 0.0, instructions = 0.0, exp_us = 0.0, cmp_us = 0.0,
         predict_ns = 0.0, save_ms = 0.0;
  for (const Prepared& kernel : kernels) {
    {
      Trace::Span span(trace, "fi.run_golden");
      fi::run_golden(*kernel.program);
    }
    golden_ms += kernel.golden_ms;
    instructions += static_cast<double>(kernel.golden.dynamic_instructions());
    const ExecutorProbe probe = probe_executor(kernel, 64, trace);
    exp_us += probe.run_injected_us / kernels.size();
    cmp_us += probe.compare_us / kernels.size();
    const auto entry = store.find(service::StoreKey{kernel.kernel, "paper", options.seed}.str());
    predict_ns += probe_predict_ns(entry->boundary, entry->golden, options.seed) /
                  kernels.size();
    campaign::CampaignLog log(kernel.program->config_key());
    if (const auto loaded = campaign::CampaignLog::load((dir / (kernel.kernel + ".clog")).string())) {
      log = *loaded;
    }
    save_ms += probe_log_save_ms(log, dir / "probe.clog");
  }
  m["fi.golden_ms"] = golden_ms;
  m["fi.step_ns"] = golden_ms * 1e6 / instructions;
  m["fi.run_injected_us"] = exp_us;
  m["fi.run_injected_compare_us"] = cmp_us;
  m["campaign.classify_s"] = med("classify");
  m["campaign.flushes"] = med("flushes");
  m["campaign.log_save_ms"] = save_ms;
  m["campaign.journal_bytes"] = med("journal_bytes");
  m["campaign.rebuild_s"] = median(untraced_rebuild_s);
  m["campaign.replay_s"] = med("replay");
  m["campaign.masked_frac"] = med("masked") / experiments;
  m["boundary.record_injection_ms"] = med("record_injection") * 1e3;
  m["boundary.accumulate_s"] = med("accumulate");
  m["boundary.finalize_ms"] = med("finalize") * 1e3;
  m["boundary.filter_rejected"] = med("filter_rejected");
  m["boundary.prop_evicted"] = med("prop_evicted");
  m["boundary.nonfinite_skipped"] = med("nonfinite");
  m["boundary.serialize_ms"] = med("serialize") * 1e3;
  m["boundary.save_ms"] = med("save") * 1e3;
  m["boundary.artifact_bytes"] = med("bytes");
  m["boundary.predict_ns"] = predict_ns;
  m["service.store.publish_ms"] = med("publish") * 1e3;
  {
    const std::string key = service::StoreKey{"cg", "paper", options.seed}.str();
    constexpr int kFinds = 1 << 18;
    const auto begin_find = Clock::now();
    std::size_t found = 0;
    for (int i = 0; i < kFinds; ++i) found += store.find(key) != nullptr;
    m["service.store.find_ns"] = seconds_since(begin_find) * 1e9 / kFinds;
    result.check(found == kFinds, "store lookups missed");
  }
  m["trace.overhead_frac"] = median(traced_pass_s) / median(pass_s) - 1.0;
  const double split_err =
      std::abs(med("parts") - m["campaign.rebuild_s"]) / m["campaign.rebuild_s"];
  m["trace.rebuild_split_err"] = split_err;
  // The traced parts must account for the untraced rebuild; otherwise the
  // per-layer split does not describe the run it claims to.
  constexpr double kSplitTolerance = 0.25;
  result.check(split_err <= kSplitTolerance,
               "traced rebuild parts (" + std::to_string(med("parts")) +
                   " s) do not account for boundary_from_log (" +
                   std::to_string(m["campaign.rebuild_s"]) + " s)");
  std::printf("paper_boundary traced: %zu traced passes; cg rebuild share %.0f%%\n",
              traced_pass_s.size(),
              100 * median(kernel_rebuild_s["cg"]) / median(kernel_s["cg"]));
  trace.write_json(options.trace_dir / ("paper_boundary-" + std::to_string(options.seed) + ".json"));
  return result;
}

// ---------------------------------------------------------------------------
// long_trace_campaign
// ---------------------------------------------------------------------------

namespace {

/// Experiments per backend per round on the long-trace CG.
constexpr std::uint64_t kLongTraceBatch = 1000;

struct Backend {
  const char* name;
  const char* span;
  bool supervisor;
  bool snapshots;
};

const Backend kBackends[] = {
    {"inproc", "campaign.run_checkpointed.inproc", false, false},
    {"pool", "campaign.run_checkpointed.pool", true, false},
    {"snapshot", "campaign.run_checkpointed.snapshot", true, true},
};

/// The long-trace CG of micro_supervisor: 24x24 grid, 200 iterations.
fi::ProgramPtr long_trace_cg() {
  kernels::CgConfig config;
  config.nx = 24;
  config.ny = 24;
  config.iterations = 200;
  return std::make_unique<kernels::CgProgram>(config);
}

}  // namespace

Result run_long_trace_campaign(const Options& options) {
  Result result;
  const fs::path dir = options.work_dir;
  // Set-up is timed before the rounds and after each, as in paper_boundary.
  const auto prepare = [&] {
    return prepare_program("cg_long", long_trace_cg(), options.seed, kLongTraceBatch);
  };
  Prepared cg;
  std::vector<double> setup_s;
  time_setup(setup_s, [&] { cg = prepare(); }, 0.0);
  Trace trace(options.trace);
  std::string reference;
  std::vector<double> round_s, traced_round_s;
  std::map<std::string, std::vector<double>> rate, layer;
  const auto begin = Clock::now();
  for (std::uint64_t round = 0; round < 2 || seconds_since(begin) < options.seconds;
       ++round) {
    const bool traced = options.trace && round % 2 == 1;
    trace.set_pass(round);
    Trace disabled(false);
    double total = 0.0, flushes = 0.0, journal_bytes = 0.0;
    for (const Backend& backend : kBackends) {
      const fs::path journal = dir / (std::string(backend.name) + ".clog");
      fs::remove(journal);
      campaign::CheckpointOptions checkpoint =
          pool_campaign(journal.string(), load_threads(), backend.snapshots);
      checkpoint.use_supervisor = backend.supervisor;
      ++result.attempted;
      const auto start = Clock::now();
      campaign::CheckpointRunResult run;
      try {
        Trace::Span span(traced ? trace : disabled, backend.span);
        run = campaign::run_campaign_checkpointed(*cg.program, cg.golden, cg.ids,
                                                  checkpoint);
      } catch (const std::exception& e) {
        ++result.failed;
        std::fprintf(stderr, "perfbench: %s campaign failed: %s\n", backend.name,
                     e.what());
        continue;
      }
      const double seconds = seconds_since(start);
      total += seconds;
      const std::string bytes = read_file(journal);
      if (reference.empty()) reference = bytes;
      result.check(bytes == reference,
                   std::string(backend.name) +
                       " journal differs from the in-process journal");
      result.check(run.log.size() == cg.ids.size(),
                   std::string(backend.name) + " journal is missing experiments");
      if (!traced) {
        rate[backend.name].push_back(static_cast<double>(cg.ids.size()) / seconds);
        continue;
      }
      flushes += static_cast<double>(run.flushes);
      journal_bytes += static_cast<double>(bytes.size());
      if (round == 1) add_supervisor_stats(result, run.supervisor_stats);
    }
    (traced ? traced_round_s : round_s).push_back(total);
    time_setup(setup_s, prepare, 0.0);
    if (traced) {
      layer["flushes"].push_back(flushes);
      layer["journal_bytes"].push_back(journal_bytes);
      layer["classify"].push_back(total);
    }
  }

  std::printf("long_trace_campaign: %zu untraced rounds, %llu experiments per "
              "backend, %llu dynamic instructions\n",
              round_s.size(), static_cast<unsigned long long>(cg.ids.size()),
              static_cast<unsigned long long>(cg.golden.dynamic_instructions()));
  for (const Backend& backend : kBackends) {
    report(std::string("journal_exp_per_s.") + backend.name,
           median(rate[backend.name]), "1/s");
  }
  result.metrics["setup_s"] = median(setup_s);
  result.metrics["latency_p50_ms"] = median(round_s) * 1e3;
  result.metrics["throughput_per_s"] =
      static_cast<double>(cg.ids.size() * std::size(kBackends)) / median(round_s);
  if (!options.trace) return result;
  add_layer_self_times(result, trace, static_cast<double>(traced_round_s.size()));

  auto& m = result.metrics;
  {
    Trace::Span span(trace, "fi.run_golden");
    fi::run_golden(*cg.program);
  }
  m["fi.golden_ms"] = cg.golden_ms;
  m["fi.step_ns"] = cg.golden_ms * 1e6 / static_cast<double>(cg.golden.dynamic_instructions());
  const ExecutorProbe probe = probe_executor(cg, 64, trace);
  m["fi.run_injected_us"] = probe.run_injected_us;
  m["fi.run_injected_compare_us"] = probe.compare_us;

  // The snapshot fork-server on its own, on the workload's first ids; its
  // results must match the in-process executor bit for bit.
  {
    const std::size_t count = std::min<std::size_t>(64, cg.ids.size());
    fi::SnapshotOptions snapshot;
    snapshot.timeout_ms = campaign::kFallbackDeadlineMs;
    double sites = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      snapshot.site_hints.push_back(campaign::site_of(cg.ids[i]));
      sites += static_cast<double>(campaign::site_of(cg.ids[i]));
    }
    auto start = Clock::now();
    std::optional<fi::SnapshotServer> server;
    {
      Trace::Span span(trace, "fi.snapshot.build");
      server.emplace(*cg.program, cg.golden, snapshot);
    }
    m["fi.snapshot.build_ms"] = seconds_since(start) * 1e3;
    std::vector<fi::ExperimentResult> forked;
    start = Clock::now();
    for (std::size_t i = 0; i < count; ++i) {
      Trace::Span span(trace, "fi.snapshot.run");
      forked.push_back(server->run(campaign::injection_of(cg.ids[i])));
    }
    m["fi.snapshot.run_us"] = seconds_since(start) * 1e6 / static_cast<double>(count);
    bool identical = true;
    for (std::size_t i = 0; i < count; ++i) {
      const fi::ExperimentResult direct =
          fi::run_injected(*cg.program, cg.golden, campaign::injection_of(cg.ids[i]));
      identical = identical && forked[i].outcome == direct.outcome &&
                  forked[i].injected_error == direct.injected_error &&
                  forked[i].output_error == direct.output_error;
    }
    result.check(identical, "snapshot results differ from run_injected");
    const fi::SnapshotStats& stats = server->stats();
    m["fi.snapshot.skipped_prefix_frac"] =
        sites > 0 ? static_cast<double>(stats.skipped_prefix) / sites : 0.0;
    m["fi.snapshot.rebuilds"] = static_cast<double>(stats.rebuilds);
    m["fi.snapshot.fallbacks"] = static_cast<double>(stats.fallback_experiments);
  }

  m["campaign.classify_s"] = median(layer["classify"]);
  m["campaign.flushes"] = median(layer["flushes"]);
  m["campaign.journal_bytes"] = median(layer["journal_bytes"]);
  if (const auto log = campaign::CampaignLog::load((dir / "inproc.clog").string())) {
    m["campaign.log_save_ms"] = probe_log_save_ms(*log, dir / "probe.clog");
  }
  m["trace.overhead_frac"] = median(traced_round_s) / median(round_s) - 1.0;
  trace.write_json(options.trace_dir /
                   ("long_trace_campaign-" + std::to_string(options.seed) + ".json"));
  return result;
}

}  // namespace ftb::perfbench
