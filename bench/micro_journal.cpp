// Microbenchmarks for the campaign journal's codec: what one CampaignLog
// serialize and one durable save cost, and the CRC-32 under both.
//
// The journal is paper_boundary's shape: 4000 records (224 KB), the size
// of one kernel's finished campaign.  The file uses only CampaignLog's
// public API and util::crc32, so it builds unchanged against older trees;
// BENCH_journal.json records a before/after pair of it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/log.h"
#include "util/cache.h"

namespace {

using namespace ftb;
namespace fs = std::filesystem;

campaign::CampaignLog make_journal(std::size_t records) {
  campaign::CampaignLog log("cg|paper|micro_journal");
  std::vector<campaign::ExperimentRecord> batch(records);
  for (std::size_t i = 0; i < records; ++i) {
    campaign::ExperimentRecord& record = batch[i];
    record.id = i * 131 + 7;
    record.result.outcome = static_cast<fi::Outcome>(i % 3);
    record.result.injected_error = 1.0 / static_cast<double>(i + 1);
    record.result.output_error = static_cast<double>(i % 17) * 1e-9;
    record.result.crash_site = i;
  }
  log.append(batch);
  return log;
}

void BM_JournalSerialize(benchmark::State& state) {
  const campaign::CampaignLog log =
      make_journal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(log.serialize());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.serialize().size()));
}
BENCHMARK(BM_JournalSerialize)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_JournalSave(benchmark::State& state) {
  const campaign::CampaignLog log =
      make_journal(static_cast<std::size_t>(state.range(0)));
  const fs::path path = fs::temp_directory_path() /
                        ("ftb_micro_journal_" + std::to_string(::getpid()));
  for (auto _ : state) {
    if (!log.save(path.string())) state.SkipWithError("save failed");
  }
  fs::remove(path);
}
BENCHMARK(BM_JournalSave)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_JournalLoad(benchmark::State& state) {
  const std::string bytes =
      make_journal(static_cast<std::size_t>(state.range(0))).serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::CampaignLog::deserialize(bytes));
  }
}
BENCHMARK(BM_JournalLoad)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4000 * 56)->Unit(benchmark::kMicrosecond);

}  // namespace
