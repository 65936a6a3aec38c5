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
// The version word of an in-progress journal: v3 records, appended frames.
constexpr std::uint64_t kInProgressVersion = (1ull << 8) | kVersion;

constexpr std::uint64_t kFlagDetectorFired = 1;

constexpr std::size_t kRecordBytes = 7 * 8;
// Records per in-progress frame; a bigger batch is split over several.
constexpr std::size_t kMaxFrameRecords = std::size_t{1} << 16;

std::optional<CampaignLog> fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return std::nullopt;
}

void put_record(util::BinaryWriter& writer, const ExperimentRecord& record) {
  writer.put_u64(record.id);
  writer.put_u64(static_cast<std::uint64_t>(record.result.outcome));
  writer.put_u64(static_cast<std::uint64_t>(record.result.crash_reason));
  writer.put_f64(record.result.injected_error);
  writer.put_f64(record.result.output_error);
  writer.put_u64(record.result.crash_site);
  writer.put_u64(record.result.detector_fired ? kFlagDetectorFired : 0);
}

/// Decodes record `index` of a journal of `version`; nullopt (with the
/// reason in `error`) when a field holds a value this binary does not know.
std::optional<ExperimentRecord> get_record(util::BinaryReader& reader,
                                           std::uint64_t version,
                                           std::uint64_t index,
                                           std::string* error) {
  ExperimentRecord record;
  record.id = reader.get_u64();
  const std::uint64_t raw = reader.get_u64();
  if (raw > static_cast<std::uint64_t>(fi::Outcome::kDetected)) {
    // Name the value so a v-next log fails readably on this binary.
    if (error != nullptr) {
      *error = "campaign log record " + std::to_string(index) +
               " has unsupported outcome " + fi::outcome_name(raw) +
               " (raw value " + std::to_string(raw) +
               "; this binary knows outcomes up to " +
               fi::outcome_name(
                   static_cast<std::uint64_t>(fi::Outcome::kDetected)) +
               ")";
    }
    return std::nullopt;
  }
  record.result.outcome = static_cast<fi::Outcome>(raw);
  const std::uint64_t reason = reader.get_u64();
  if (reason > static_cast<std::uint64_t>(fi::CrashReason::kQuarantined)) {
    if (error != nullptr) {
      *error = "campaign log record " + std::to_string(index) +
               " has invalid crash reason " + std::to_string(reason);
    }
    return std::nullopt;
  }
  record.result.crash_reason = static_cast<fi::CrashReason>(reason);
  record.result.injected_error = reader.get_f64();
  record.result.output_error = reader.get_f64();
  record.result.crash_site = reader.get_u64();
  if (version >= 3) {
    const std::uint64_t flags = reader.get_u64();
    record.result.detector_fired = (flags & kFlagDetectorFired) != 0;
  }
  return record;
}

/// Appends `records` to `out` as in-progress frames.
void put_frames(std::vector<std::uint8_t>& out,
                std::span<const ExperimentRecord> records) {
  for (std::size_t begin = 0; begin < records.size();
       begin += kMaxFrameRecords) {
    const auto frame =
        records.subspan(begin, std::min(kMaxFrameRecords, records.size() - begin));
    util::BinaryWriter payload;
    payload.reserve(frame.size() * kRecordBytes);
    for (const ExperimentRecord& record : frame) put_record(payload, record);
    util::append_frame(out, payload.buffer().data(), payload.buffer().size());
  }
}

/// The in-progress form of `log`: its header, then its records as frames.
std::vector<std::uint8_t> in_progress_bytes(const CampaignLog& log) {
  util::BinaryWriter header;
  header.reserve(4 * 8 + log.config_key().size());
  header.put_u64(kMagic);
  header.put_u64(kInProgressVersion);
  header.put_string(log.config_key());
  header.put_u64(util::crc32(header.buffer().data(), header.buffer().size()));
  std::vector<std::uint8_t> out = header.buffer();
  out.reserve(out.size() + log.size() * kRecordBytes +
              (log.size() / kMaxFrameRecords + 1) * util::kFrameOverhead);
  put_frames(out, log.records());
  return out;
}

/// Parses an in-progress journal (magic and version already checked): the
/// records of every frame before the first torn or corrupt one.
std::optional<CampaignLog> parse_in_progress(const std::uint8_t* bytes,
                                             std::size_t size,
                                             std::string* error) {
  util::BinaryReader header(bytes + 16, size - 16);
  std::string config_key = header.get_string();
  const std::size_t header_size = size - header.remaining();
  if (header.get_u64() != util::crc32(bytes, header_size)) {
    return fail(error, "campaign journal header CRC mismatch (file is corrupt)");
  }
  CampaignLog log(std::move(config_key));
  const util::FrameScan scan = util::scan_frames(
      {bytes, size}, header_size + 8,
      static_cast<std::uint32_t>(kMaxFrameRecords * kRecordBytes));
  std::vector<ExperimentRecord> records;
  for (const util::ScannedFrame& frame : scan.frames) {
    if (frame.payload.size() % kRecordBytes != 0) {
      return fail(error, "campaign journal frame at offset " +
                             std::to_string(frame.offset) + " holds " +
                             std::to_string(frame.payload.size()) +
                             " bytes, not whole records");
    }
    util::BinaryReader reader(frame.payload.data(), frame.payload.size());
    while (!reader.exhausted()) {
      auto record = get_record(reader, kVersion, records.size(), error);
      if (!record) return std::nullopt;
      records.push_back(*record);
    }
  }
  log.append(records);
  return log;
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
  writer.reserve(5 * 8 + config_key_.size() + records_.size() * kRecordBytes);
  writer.put_u64(kMagic);
  writer.put_u64(kVersion);
  writer.put_string(config_key_);
  writer.put_u64(records_.size());
  for (const ExperimentRecord& record : records_) put_record(writer, record);
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
  if (util::load_le64(bytes) != kMagic) {
    return fail(error, "campaign log has bad magic (not an FTB-CLOG file)");
  }
  const std::uint64_t version = util::load_le64(bytes + 8);
  try {
    if (version == kInProgressVersion) {
      return parse_in_progress(bytes, payload.size(), error);
    }
    if (version < kMinVersion || version > kVersion) {
      return fail(error, "campaign log has unsupported version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kMinVersion) + ".." +
                             std::to_string(kVersion) + ")");
    }
    const std::size_t body = payload.size() - 8;
    if (util::load_le64(bytes + body) != util::crc32(bytes, body)) {
      return fail(error,
                  "campaign log CRC mismatch (file is corrupt or was "
                  "truncated mid-write)");
    }
    util::BinaryReader reader(bytes + 16, body - 16);
    CampaignLog log(reader.get_string());
    const std::uint64_t count = reader.get_u64();
    log.records_.reserve(std::min<std::uint64_t>(count, reader.remaining() / 8));
    for (std::uint64_t i = 0; i < count; ++i) {
      auto record = get_record(reader, version, i, error);
      if (!record) return std::nullopt;
      log.records_.push_back(*record);
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

bool JournalWriter::begin(const CampaignLog& log, std::string* error) {
  file_.close();
  const std::vector<std::uint8_t> bytes = in_progress_bytes(log);
  if (!util::write_file_durable(path_, bytes, error)) return false;
  last_write_bytes_ = bytes.size();
  return file_.open(path_, error);
}

bool JournalWriter::append(std::span<const ExperimentRecord> batch,
                           std::string* error) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(batch.size() * kRecordBytes + util::kFrameOverhead);
  put_frames(bytes, batch);
  if (!file_.append(bytes.data(), bytes.size(), error)) return false;
  last_write_bytes_ = bytes.size();
  return true;
}

bool JournalWriter::compact(const CampaignLog& log, std::string* error) {
  file_.close();
  const std::string bytes = log.serialize();
  if (!util::write_file_durable(path_, bytes, error)) return false;
  last_write_bytes_ = bytes.size();
  return true;
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
