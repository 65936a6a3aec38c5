#include "campaign/log.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "fi/outcome.h"
#include "util/cache.h"
#include "util/durable_file.h"

namespace ftb::campaign {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d434c4f47ull;  // "FTB-CLOG"
// v2: adds a per-record crash_reason byte and a trailing CRC-32 frame check.
// v3: adds the kDetected outcome and a per-record flags word (bit 0 =
// detector_fired).  v2 logs still load (flags default to 0).
constexpr std::uint64_t kVersion = 3;
constexpr std::uint64_t kMinVersion = 2;

constexpr std::uint64_t kFlagDetectorFired = 1;

std::optional<CampaignLog> fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

}  // namespace

void CampaignLog::append(std::span<const ExperimentRecord> batch) {
  records_.insert(records_.end(), batch.begin(), batch.end());
}

void CampaignLog::dedupe() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const ExperimentRecord& a, const ExperimentRecord& b) {
                     return a.id < b.id;
                   });
  records_.erase(std::unique(records_.begin(), records_.end(),
                             [](const ExperimentRecord& a,
                                const ExperimentRecord& b) {
                               return a.id == b.id;
                             }),
                 records_.end());
}

void CampaignLog::merge(const CampaignLog& other) {
  if (other.config_key_ != config_key_) {
    throw std::invalid_argument("CampaignLog::merge: config key mismatch ('" +
                                config_key_ + "' vs '" + other.config_key_ +
                                "')");
  }
  append(other.records_);
  dedupe();
}

std::vector<ExperimentId> CampaignLog::ids() const {
  std::vector<ExperimentId> out;
  out.reserve(records_.size());
  for (const ExperimentRecord& record : records_) out.push_back(record.id);
  std::sort(out.begin(), out.end());
  return out;
}

std::string CampaignLog::serialize() const {
  util::BinaryWriter writer;
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(config_key_);
  writer.put_u64(records_.size());
  for (const ExperimentRecord& record : records_) {
    writer.put_u64(record.id);
    writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
    writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
    writer.put_f64(record.result.injected_error);
    writer.put_f64(record.result.output_error);
    writer.put_u64(record.result.crash_site);
    writer.put_u64(record.result.detector_fired ? kFlagDetectorFired : 0);
  }
  // Trailing CRC-32 of everything written so far, stored as a u64 so the
  // whole file stays 8-byte framed.
  const std::uint32_t crc =
      util::crc32(writer.buffer().data(), writer.buffer().size());
  writer.put_u64(crc);
  return {writer.buffer().begin(), writer.buffer().end()};
}

std::optional<CampaignLog> CampaignLog::deserialize(const std::string& payload,
                                                    std::string* error) {
  // The CRC is checked up front: a frame that fails it is corrupt, and any
  // decode error past this point would only describe a symptom of that.
  if (payload.size() < 4 * 8) {
    return fail(error, "campaign log truncated: " +
                           std::to_string(payload.size()) +
                           " bytes is smaller than the fixed header");
  }
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(payload.data());
  const std::size_t body = payload.size() - 8;
  std::uint64_t stored_crc = 0;
  for (int i = 0; i < 8; ++i) {
    stored_crc |= static_cast<std::uint64_t>(bytes[body + i]) << (8 * i);
  }
  const std::uint32_t actual_crc = util::crc32(bytes, body);
  try {
    util::BinaryReader reader(std::vector<std::uint8_t>(bytes, bytes + body));
    if (reader.get_u64() != kMagic) {
      return fail(error, "campaign log has bad magic (not an FTB-CLOG file)");
    }
    const std::uint64_t version = reader.get_u64();
    if (version < kMinVersion || version > kVersion) {
      return fail(error, "campaign log has unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kMinVersion) + ".." +
                             std::to_string(kVersion) + ")");
    }
    if (stored_crc != actual_crc) {
      return fail(error,
                  "campaign log CRC mismatch (file is corrupt or was "
                  "truncated mid-write)");
    }
    CampaignLog log(reader.get_string());
    const std::uint64_t count = reader.get_u64();
    log.records_.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      ExperimentRecord record;
      record.id = reader.get_u64();
      const std::uint64_t raw = reader.get_u64();
      if (raw > static_cast<std::uint64_t>(fi::Outcome::kDetected)) {
        // Name the value so a v-next log fails readably on this binary.
        return fail(error, "campaign log record " + std::to_string(i) +
                               " has unsupported outcome " +
                               fi::outcome_name(raw) +
                               " (raw value " + std::to_string(raw) +
                               "; this binary knows outcomes up to " +
                               fi::outcome_name(static_cast<std::uint64_t>(
                                   fi::Outcome::kDetected)) +
                               ")");
      }
      record.result.outcome = static_cast<fi::Outcome>(raw);
      const std::uint64_t reason = reader.get_u64();
      if (reason > static_cast<std::uint64_t>(fi::CrashReason::kQuarantined)) {
        return fail(error, "campaign log record " + std::to_string(i) +
                               " has invalid crash reason " +
                               std::to_string(reason));
      }
      record.result.crash_reason = static_cast<fi::CrashReason>(reason);
      record.result.injected_error = reader.get_f64();
      record.result.output_error = reader.get_f64();
      record.result.crash_site = reader.get_u64();
      if (version >= 3) {
        const std::uint64_t flags = reader.get_u64();
        record.result.detector_fired = (flags & kFlagDetectorFired) != 0;
      }
      log.records_.push_back(record);
    }
    return log;
  } catch (const std::runtime_error& e) {
    return fail(error, std::string("campaign log truncated: ") + e.what());
  }
}

bool CampaignLog::save(const std::string& path) const {
  // Durable publish (tmp + fsync + rename + parent-dir fsync): a journal
  // flush is the checkpoint the resume path trusts, so it must survive a
  // crash, not just a concurrent reader.
  return util::write_file_durable(path, serialize());
}

std::optional<CampaignLog> CampaignLog::load(const std::string& path,
                                             std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(error, "cannot open campaign log '" + path + "'");
  const std::string payload{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  std::string detail;
  auto log = deserialize(payload, &detail);
  if (!log) return fail(error, "'" + path + "': " + detail);
  return log;
}

void accumulate_records(const fi::Program& program,
                        const fi::GoldenRun& golden,
                        std::span<const ExperimentRecord> records,
                        boundary::BoundaryAccumulator& accumulator,
                        util::ThreadPool& pool,
                        const CompareConsumer& observe) {
  std::vector<ExperimentId> masked_ids;
  for (const ExperimentRecord& record : records) {
    if (!is_classic(record.id)) continue;
    accumulator.record_injection(site_of(record.id), bit_of(record.id),
                                 record.result.outcome,
                                 record.result.injected_error);
    if (record.result.outcome == fi::Outcome::kMasked) {
      masked_ids.push_back(record.id);
    }
  }

  const auto consume = [&](const ExperimentRecord& record,
                           std::span<const double> diffs) {
    accumulator.record_masked_propagation(diffs);
    if (observe) observe(record, diffs);
  };
  (void)run_experiments_compare(program, golden, masked_ids, pool, consume);
}

boundary::FaultToleranceBoundary boundary_from_log(
    const fi::Program& program, const fi::GoldenRun& golden,
    const CampaignLog& log, const boundary::AccumulatorOptions& options,
    util::ThreadPool& pool) {
  if (log.config_key() != program.config_key()) {
    throw std::invalid_argument(
        "boundary_from_log: log was recorded for a different configuration");
  }
  boundary::BoundaryAccumulator accumulator(golden.trace.size(), options);
  accumulate_records(program, golden, log.records(), accumulator, pool);
  return accumulator.finalize();
}

}  // namespace ftb::campaign
