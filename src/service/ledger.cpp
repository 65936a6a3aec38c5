#include "service/ledger.h"

#include <cstddef>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "util/cache.h"

namespace ftb::service {

namespace {

constexpr std::uint64_t kMagic = 0x4654422d4a4c4447ull;  // "FTB-JLDG"
constexpr std::uint64_t kVersion = 1;
constexpr std::size_t kPreambleSize = 16;
/// A submit record is a few hundred bytes; anything claiming more than this
/// is a torn length word, not a real record.
constexpr std::uint32_t kMaxRecordLen = 1u << 20;

std::vector<std::uint8_t> encode_state_payload(std::uint64_t job,
                                               JobState state,
                                               const std::string& note) {
  util::BinaryWriter writer;
  writer.put_u64(job);
  writer.put_u64(static_cast<std::uint64_t>(state));
  writer.put_string(note);
  return writer.buffer();
}

/// kSubmitted payload.  Campaign jobs stop at the eighth request field --
/// byte-identical to ledgers written before recompute jobs existed --
/// while recompute jobs append their kind and extra fields after it.
std::vector<std::uint8_t> encode_submit_payload(
    std::uint64_t job, JobKind kind, const SubmitCampaignReq* campaign,
    const SubmitRecomputeReq* recompute) {
  util::BinaryWriter writer;
  writer.put_u64(job);
  writer.put_u64(static_cast<std::uint64_t>(JobState::kSubmitted));
  if (kind == JobKind::kRecompute) {
    writer.put_string(recompute->kernel);
    writer.put_string(recompute->preset);
    writer.put_u64(recompute->seed);
    writer.put_u64(recompute->section_batch);
    writer.put_u64(recompute->workers);
    writer.put_u64(recompute->flush_every);
    writer.put_u64(recompute->timeout_ms);
    writer.put_u64(recompute->quarantine_after);
    writer.put_u64(static_cast<std::uint64_t>(kind));
    writer.put_string(recompute->section_batches);
    writer.put_u64(recompute->force ? 1 : 0);
  } else {
    writer.put_string(campaign->kernel);
    writer.put_string(campaign->preset);
    writer.put_u64(campaign->seed);
    writer.put_u64(campaign->batch);
    writer.put_u64(campaign->workers);
    writer.put_u64(campaign->flush_every);
    writer.put_u64(campaign->timeout_ms);
    writer.put_u64(campaign->quarantine_after);
  }
  return writer.buffer();
}

/// The diagnostic for the torn or corrupt frame that ended a replay.
std::string describe_tear(const util::FrameScan& scan) {
  const std::string at = std::to_string(scan.end);
  switch (scan.tail) {
    case util::FrameTail::kTornHeader:
      return "ledger tail is torn mid-record-header; dropping it";
    case util::FrameTail::kOversized:
      return "ledger record at offset " + at +
             " declares an absurd length (" + std::to_string(scan.tail_len) +
             " bytes); dropping the tail";
    case util::FrameTail::kTornPayload:
      return "ledger tail is torn mid-record; dropping it";
    case util::FrameTail::kBadCrc:
      return "ledger record at offset " + at + " fails its CRC; dropping the tail";
    case util::FrameTail::kClean:
      break;
  }
  return {};
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kSubmitted: return "submitted";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kCampaign: return "campaign";
    case JobKind::kRecompute: return "recompute";
  }
  return "unknown";
}

JobLedger::ReplayResult JobLedger::replay_file(const std::string& path) {
  ReplayResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // missing ledger: fresh daemon, nothing pending
  std::vector<std::uint8_t> bytes;
  try {
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  } catch (const std::exception& e) {
    // e.g. the path is a directory; treat as unreadable, not fatal -- the
    // caller decides whether an unusable ledger blocks submissions.
    ++result.torn_records;
    result.diagnostics.push_back("ledger is unreadable (" +
                                 std::string(e.what()) + ")");
    return result;
  }
  if (bytes.empty()) return result;
  if (bytes.size() < kPreambleSize) {
    ++result.torn_records;
    result.diagnostics.push_back("ledger preamble is truncated (" +
                                 std::to_string(bytes.size()) + " bytes)");
    return result;
  }
  std::uint64_t magic = 0, version = 0;
  for (int i = 0; i < 8; ++i) {
    magic |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    version |= static_cast<std::uint64_t>(bytes[8 + i]) << (8 * i);
  }
  if (magic != kMagic) {
    ++result.torn_records;
    result.diagnostics.push_back(
        "ledger has bad magic (not an FTB-JLDG file); ignoring it");
    return result;
  }
  if (version != kVersion) {
    ++result.torn_records;
    result.diagnostics.push_back("ledger has unsupported version " +
                                 std::to_string(version) + " (expected " +
                                 std::to_string(kVersion) + "); ignoring it");
    return result;
  }

  // Jobs in submit order, updated in place as state records arrive.
  std::vector<LedgerJob> jobs;
  std::unordered_map<std::uint64_t, std::size_t> index;

  const util::FrameScan scan =
      util::scan_frames(bytes, kPreambleSize, kMaxRecordLen);
  bool malformed = false;
  for (const util::ScannedFrame& frame : scan.frames) {
    const std::size_t pos = frame.offset;
    try {
      util::BinaryReader reader(frame.payload.data(), frame.payload.size());
      const std::uint64_t job = reader.get_u64();
      const std::uint64_t raw_state = reader.get_u64();
      if (raw_state > static_cast<std::uint64_t>(JobState::kFailed)) {
        throw std::runtime_error("invalid state " + std::to_string(raw_state));
      }
      const JobState state = static_cast<JobState>(raw_state);
      if (state == JobState::kSubmitted) {
        LedgerJob entry;
        entry.id = job;
        entry.state = state;
        entry.req.kernel = reader.get_string();
        entry.req.preset = reader.get_string();
        entry.req.seed = reader.get_u64();
        entry.req.batch = reader.get_u64();
        entry.req.workers = static_cast<std::uint32_t>(reader.get_u64());
        entry.req.flush_every = static_cast<std::uint32_t>(reader.get_u64());
        entry.req.timeout_ms = static_cast<std::uint32_t>(reader.get_u64());
        entry.req.quarantine_after =
            static_cast<std::uint32_t>(reader.get_u64());
        if (!reader.exhausted()) {
          // Trailing kind fields: only recompute jobs write them, so a
          // pre-recompute ledger (exhausted here) replays as a campaign.
          const std::uint64_t raw_kind = reader.get_u64();
          if (raw_kind != static_cast<std::uint64_t>(JobKind::kRecompute)) {
            throw std::runtime_error("invalid submit kind " +
                                     std::to_string(raw_kind));
          }
          entry.kind = JobKind::kRecompute;
          entry.recompute.kernel = entry.req.kernel;
          entry.recompute.preset = entry.req.preset;
          entry.recompute.seed = entry.req.seed;
          entry.recompute.section_batch = entry.req.batch;
          entry.recompute.workers = entry.req.workers;
          entry.recompute.flush_every = entry.req.flush_every;
          entry.recompute.timeout_ms = entry.req.timeout_ms;
          entry.recompute.quarantine_after = entry.req.quarantine_after;
          entry.recompute.section_batches = reader.get_string();
          entry.recompute.force = reader.get_u64() != 0;
          if (!reader.exhausted()) {
            throw std::runtime_error("trailing garbage in submit record");
          }
        }
        index[job] = jobs.size();
        jobs.push_back(std::move(entry));
      } else {
        const std::string note = reader.get_string();
        if (!reader.exhausted()) {
          throw std::runtime_error("trailing garbage in state record");
        }
        auto it = index.find(job);
        if (it == index.end()) {
          result.diagnostics.push_back(
              "ledger has a " + std::string(to_string(state)) +
              " record for unknown job " + std::to_string(job) +
              " (its submit record was compacted away?); ignoring it");
        } else {
          jobs[it->second].state = state;
          jobs[it->second].note = note;
        }
      }
      if (job >= result.next_job_id) result.next_job_id = job + 1;
      ++result.records;
    } catch (const std::runtime_error& e) {
      ++result.torn_records;
      result.diagnostics.push_back("ledger record at offset " +
                                   std::to_string(pos) +
                                   " is malformed (" + e.what() +
                                   "); dropping the tail");
      malformed = true;
      break;
    }
  }
  if (!malformed && scan.tail != util::FrameTail::kClean) {
    ++result.torn_records;
    result.diagnostics.push_back(describe_tear(scan));
  }

  for (LedgerJob& job : jobs) {
    if (job.state == JobState::kDone || job.state == JobState::kFailed) {
      ++result.terminal;
      result.terminal_jobs.push_back(std::move(job));
    } else {
      result.pending.push_back(std::move(job));
    }
  }
  return result;
}

bool JobLedger::open(const std::string& path, ReplayResult* replay,
                     std::string* error) {
  path_ = path;
  ReplayResult local = replay_file(path);

  // Compact: rewrite the file with only the pending jobs, durably, so
  // terminal history and any torn tail are gone before we start appending.
  // A pending job that was already kRunning gets both its submit record and
  // a running record back, preserving what replay would report.
  std::vector<std::uint8_t> compacted;
  {
    util::BinaryWriter preamble;
    preamble.put_u64(kMagic);
    preamble.put_u64(kVersion);
    compacted = preamble.buffer();
  }
  for (const LedgerJob& job : local.pending) {
    const auto submit = util::frame_record(encode_submit_payload(
        job.id, job.kind, &job.req, &job.recompute));
    compacted.insert(compacted.end(), submit.begin(), submit.end());
    if (job.state == JobState::kRunning) {
      const auto running = util::frame_record(
          encode_state_payload(job.id, JobState::kRunning, job.note));
      compacted.insert(compacted.end(), running.begin(), running.end());
    }
  }
  if (replay != nullptr) *replay = std::move(local);

  if (!util::write_file_durable(path_, compacted, error)) {
    if (error != nullptr) *error = "ledger compaction failed: " + *error;
    return false;
  }
  return log_.open(path_, error);
}

bool JobLedger::append_submitted(std::uint64_t job,
                                 const SubmitCampaignReq& req,
                                 std::string* error) {
  const auto record = util::frame_record(
      encode_submit_payload(job, JobKind::kCampaign, &req, nullptr));
  return log_.append(record.data(), record.size(), error);
}

bool JobLedger::append_submitted_recompute(std::uint64_t job,
                                           const SubmitRecomputeReq& req,
                                           std::string* error) {
  const auto record = util::frame_record(
      encode_submit_payload(job, JobKind::kRecompute, nullptr, &req));
  return log_.append(record.data(), record.size(), error);
}

bool JobLedger::append_state(std::uint64_t job, JobState state,
                             const std::string& note, std::string* error) {
  const auto record = util::frame_record(encode_state_payload(job, state, note));
  return log_.append(record.data(), record.size(), error);
}

}  // namespace ftb::service
