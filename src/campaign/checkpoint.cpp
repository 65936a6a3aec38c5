#include "campaign/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <unordered_set>

#include "telemetry/events.h"

namespace ftb::campaign {

namespace {

/// The default source: every chunk on the runner's own backend, in order.
class LocalChunks final : public ChunkSource {
 public:
  void start(std::span<const std::span<const ExperimentId>> chunks,
             const SupervisorOptions&, ChunkRunner run_local) override {
    chunks_ = chunks;
    run_local_ = std::move(run_local);
  }

  std::optional<std::vector<ExperimentRecord>> next(
      const std::function<bool()>& should_stop) override {
    if (next_ == chunks_.size() || should_stop()) return std::nullopt;
    return run_local_(chunks_[next_++]);
  }

 private:
  std::span<const std::span<const ExperimentId>> chunks_;
  ChunkRunner run_local_;
  std::size_t next_ = 0;
};

}  // namespace

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

  // Chunks of the ids still owed, in order; every source takes these.
  std::vector<std::span<const ExperimentId>> chunks;
  for (std::size_t begin = 0; begin < remaining.size(); begin += flush_every) {
    chunks.emplace_back(remaining.data() + begin,
                        std::min(flush_every, remaining.size() - begin));
  }

  SupervisorOptions supervisor_options = options.supervisor;
  if (supervisor_options.telemetry == nullptr) {
    supervisor_options.telemetry = options.telemetry;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();
  // One supervisor for the whole invocation, forked at the first chunk this
  // runner executes itself: the worker pool is forked once, and the
  // quarantine ledger accumulates across chunks.
  std::optional<CampaignSupervisor> supervisor;
  const ChunkRunner run_local = [&](std::span<const ExperimentId> chunk) {
    telemetry::SpanScope span(options.telemetry, "checkpoint.chunk",
                              "checkpoint");
    span.arg("experiments", static_cast<double>(chunk.size()));
    if (!options.use_supervisor) {
      return run_experiments(program, golden, chunk, pool);
    }
    if (!supervisor) {
      // Density hints for snapshot placement: the ids still owed are
      // exactly where this invocation will fork, so hand their sites to
      // plan_checkpoints (fi/snapshot.h).  Placement is a speed knob only
      // -- journal bytes are identical wherever the checkpoints land.
      SupervisorOptions local = supervisor_options;
      if (local.pool.use_snapshots && local.pool.snapshot.site_hints.empty()) {
        auto& hints = local.pool.snapshot.site_hints;
        hints.reserve(remaining.size());
        for (ExperimentId id : remaining) {
          if (is_classic(id)) hints.push_back(site_of(id));
        }
      }
      supervisor.emplace(program, golden, local);
    }
    return supervisor->run(chunk);
  };

  LocalChunks local_chunks;
  ChunkSource& source =
      options.chunk_source != nullptr ? *options.chunk_source : local_chunks;

  const auto stats = [&] {
    SupervisorStats current;
    if (supervisor) current = supervisor->stats();
    source.add_stats(current);
    return current;
  };

  // The first flush of an invocation writes the in-progress journal whole
  // (whatever form the file had, and any torn tail, are gone after it); each
  // later flush appends just the chunk it merged.  The final flush compacts.
  JournalWriter journal(options.path);
  const auto flush = [&](std::span<const ExperimentRecord> batch, bool last) {
    telemetry::SpanScope span(options.telemetry, "checkpoint.flush",
                              "checkpoint");
    span.arg("records", static_cast<double>(result.log.size()));
    std::string error;
    const bool written = last ? journal.compact(result.log, &error)
                         : journal.is_open() ? journal.append(batch, &error)
                                             : journal.begin(result.log, &error);
    if (!written) {
      throw std::runtime_error(
          "run_campaign_checkpointed: cannot write journal '" + options.path +
          "': " + error);
    }
    ++result.flushes;
    span.arg("bytes", static_cast<double>(journal.last_write_bytes()));
    if (telemetry::active(options.telemetry)) {
      auto& metrics = options.telemetry->metrics();
      metrics.counter("checkpoint.flushes").add();
      metrics.counter("checkpoint.flush_bytes").add(journal.last_write_bytes());
      if (last) metrics.counter("checkpoint.compactions").add();
    }
  };

  const bool report_stats =
      options.use_supervisor || options.chunk_source != nullptr;
  const auto report = [&](std::span<const ExperimentRecord> chunk) {
    if (!options.on_progress) return;
    CheckpointProgress progress;
    progress.executed = result.executed;
    progress.total = remaining.size();
    progress.logged = result.log.size();
    progress.chunk = chunk;
    SupervisorStats stats_copy;
    if (report_stats) {
      stats_copy = stats();
      progress.supervisor = &stats_copy;
    }
    options.on_progress(progress);
  };

  const std::function<bool()> should_stop = [&] {
    return options.should_stop && options.should_stop();
  };

  source.start(chunks, supervisor_options, run_local);
  std::size_t returned = 0;
  try {
    // Every finished chunk is merged and flushed, even on the way out of a
    // stop: completed work is durable work.
    while (std::optional<std::vector<ExperimentRecord>> batch =
               source.next(should_stop)) {
      ++returned;
      result.log.append(*batch);
      result.executed += batch->size();
      if (telemetry::active(options.telemetry)) {
        options.telemetry->metrics()
            .counter("checkpoint.experiments")
            .add(batch->size());
      }
      flush(*batch, false);
      report(*batch);
    }
  } catch (...) {
    source.finish();
    throw;
  }
  source.finish();
  result.stopped = returned < chunks.size();

  result.log.dedupe();
  flush({}, true);  // the compacted, deduped journal (complete or drained)
  report({});
  if (report_stats) result.supervisor_stats = stats();
  return result;
}

}  // namespace ftb::campaign
