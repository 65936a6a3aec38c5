#include "campaign/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "telemetry/events.h"

namespace ftb::campaign {

CheckpointRunResult run_campaign_checkpointed(
    const fi::Program& program, const fi::GoldenRun& golden,
    std::span<const ExperimentId> ids, const CheckpointOptions& options) {
  if (options.path.empty()) {
    throw std::invalid_argument(
        "run_campaign_checkpointed: journal path is empty");
  }
  const std::size_t flush_every = std::max<std::size_t>(1, options.flush_every);
  const std::string config_key = program.config_key();

  CheckpointRunResult result;
  std::error_code ec;
  if (std::filesystem::exists(options.path, ec)) {
    std::string error;
    auto journal = CampaignLog::load(options.path, &error);
    if (!journal) {
      // A journal that exists but does not parse is not a resumable state;
      // refusing beats silently redoing (or worse, double-counting) work.
      throw std::runtime_error("run_campaign_checkpointed: " + error);
    }
    if (journal->config_key() != config_key) {
      throw std::invalid_argument(
          "run_campaign_checkpointed: journal '" + options.path +
          "' belongs to configuration '" + journal->config_key() +
          "', not '" + config_key + "'");
    }
    result.log = std::move(*journal);
    result.resumed = true;
  } else {
    result.log = CampaignLog(config_key);
  }

  // Set-difference: the ids still owed after what the journal already holds.
  std::unordered_set<ExperimentId> done;
  done.reserve(result.log.size());
  for (const ExperimentRecord& record : result.log.records()) {
    done.insert(record.id);
  }
  std::vector<ExperimentId> remaining;
  remaining.reserve(ids.size());
  for (ExperimentId id : ids) {
    if (done.count(id) == 0) remaining.push_back(id);
  }
  result.skipped = ids.size() - remaining.size();

  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();

  // One supervisor for the whole invocation: the worker pool is forked
  // once, and the quarantine ledger accumulates across chunks.
  std::optional<CampaignSupervisor> supervisor;
  if (options.use_supervisor) {
    SupervisorOptions supervisor_options = options.supervisor;
    if (supervisor_options.telemetry == nullptr) {
      supervisor_options.telemetry = options.telemetry;
    }
    // Density hints for snapshot placement: the ids still owed are exactly
    // where this invocation will fork, so hand their sites to
    // plan_checkpoints (fi/snapshot.h).  Placement is a speed knob only --
    // journal bytes are identical wherever the checkpoints land.
    if (supervisor_options.pool.use_snapshots &&
        supervisor_options.pool.snapshot.site_hints.empty()) {
      auto& hints = supervisor_options.pool.snapshot.site_hints;
      hints.reserve(remaining.size());
      for (ExperimentId id : remaining) {
        if (is_classic(id)) hints.push_back(site_of(id));
      }
    }
    supervisor.emplace(program, golden, supervisor_options);
  }

  const auto flush = [&] {
    telemetry::SpanScope span(options.telemetry, "checkpoint.flush",
                              "checkpoint");
    span.arg("records", static_cast<double>(result.log.size()));
    if (!result.log.save(options.path)) {
      throw std::runtime_error(
          "run_campaign_checkpointed: cannot write journal '" + options.path +
          "'");
    }
    ++result.flushes;
    if (telemetry::active(options.telemetry)) {
      options.telemetry->metrics().counter("checkpoint.flushes").add();
    }
  };

  const auto report = [&](std::span<const ExperimentRecord> chunk) {
    if (!options.on_progress) return;
    CheckpointProgress progress;
    progress.executed = result.executed;
    progress.total = remaining.size();
    progress.logged = result.log.size();
    progress.chunk = chunk;
    SupervisorStats stats_copy;
    if (supervisor) {
      stats_copy = supervisor->stats();
      progress.supervisor = &stats_copy;
    }
    options.on_progress(progress);
  };

  for (std::size_t begin = 0; begin < remaining.size(); begin += flush_every) {
    if (options.should_stop && options.should_stop()) {
      result.stopped = true;
      break;
    }
    const std::size_t end = std::min(begin + flush_every, remaining.size());
    const std::span<const ExperimentId> chunk(remaining.data() + begin,
                                              end - begin);
    telemetry::SpanScope chunk_span(options.telemetry, "checkpoint.chunk",
                                    "checkpoint");
    chunk_span.arg("experiments", static_cast<double>(chunk.size()));
    std::vector<ExperimentRecord> batch;
    if (supervisor) {
      batch = supervisor->run(chunk);
    } else {
      batch = run_experiments(program, golden, chunk, pool);
    }
    result.log.append(batch);
    result.executed += batch.size();
    if (telemetry::active(options.telemetry)) {
      options.telemetry->metrics()
          .counter("checkpoint.experiments")
          .add(batch.size());
    }
    flush();
    report(batch);
  }

  result.log.dedupe();
  flush();  // final flush persists the deduped journal (complete or drained)
  report({});
  if (supervisor) result.supervisor_stats = supervisor->stats();
  return result;
}

}  // namespace ftb::campaign
