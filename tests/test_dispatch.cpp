// Distributed campaign plane tests: worker-protocol round-trips, then an
// in-process Server + Service + WorkerAgent cluster on loopback covering
// the lease/requeue/quarantine discipline end to end -- remote execution
// with a byte-identical journal, a worker dying mid-chunk, a SIGSTOP-style
// silent worker losing its lease, a chunk-killing worker being quarantined,
// duplicate results being dropped exactly-once, a drain mid-job, and a
// recompute job's sections running through the dispatcher.
#include "service/dispatch.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/checkpoint.h"
#include "campaign/log.h"
#include "campaign/sampler.h"
#include "kernels/registry.h"
#include "net/client.h"
#include "net/socket.h"
#include "service/service.h"
#include "service/worker.h"
#include "util/cache.h"
#include "util/rng.h"

namespace ftb::service {
namespace {

namespace fs = std::filesystem;

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(WorkerProtocol, RoundTripsAllWorkerPlaneMessages) {
  WorkerHello hello;
  hello.name = "w-test";
  hello.capacity = 3;
  hello.pool_workers = 4;
  hello.token = "s3kr1t";
  std::string error;
  const auto hello2 = parse_worker_hello(make_worker_hello(hello), &error);
  ASSERT_TRUE(hello2.has_value()) << error;
  EXPECT_EQ(hello2->name, "w-test");
  EXPECT_EQ(hello2->capacity, 3u);
  EXPECT_EQ(hello2->pool_workers, 4u);
  EXPECT_EQ(hello2->token, "s3kr1t");

  WorkerHelloOk ok;
  ok.worker = 42;
  ok.heartbeat_interval_ms = 125;
  ok.lease_timeout_ms = 999;
  const auto ok2 = parse_worker_hello_ok(make_worker_hello_ok(ok), &error);
  ASSERT_TRUE(ok2.has_value()) << error;
  EXPECT_EQ(ok2->worker, 42u);
  EXPECT_EQ(ok2->heartbeat_interval_ms, 125u);
  EXPECT_EQ(ok2->lease_timeout_ms, 999u);

  WorkerHeartbeat beat;
  beat.worker = 42;
  beat.seq = 7;
  const auto beat2 =
      parse_worker_heartbeat(make_worker_heartbeat(beat), &error);
  ASSERT_TRUE(beat2.has_value()) << error;
  EXPECT_EQ(beat2->worker, 42u);
  EXPECT_EQ(beat2->seq, 7u);

  WorkerChunk chunk;
  chunk.job = 5;
  chunk.chunk = 2;
  chunk.kernel = "cg";
  chunk.preset = "tiny";
  chunk.pool_workers = 2;
  chunk.timeout_ms = 1500;
  chunk.quarantine_after = 4;
  chunk.ids = {1, 99, (std::uint64_t{1} << 60) + 17};
  const auto chunk2 = parse_worker_chunk(make_worker_chunk(chunk), &error);
  ASSERT_TRUE(chunk2.has_value()) << error;
  EXPECT_EQ(chunk2->kernel, "cg");
  EXPECT_EQ(chunk2->preset, "tiny");
  EXPECT_EQ(chunk2->timeout_ms, 1500u);
  EXPECT_EQ(chunk2->quarantine_after, 4u);
  EXPECT_EQ(chunk2->ids, chunk.ids);

  WorkerChunkResult result;
  result.job = 5;
  result.chunk = 2;
  result.ok = true;
  result.worker_deaths = 1;
  result.worker_hangs = 2;
  result.requeued = 3;
  result.quarantined = 4;
  campaign::ExperimentRecord record;
  record.id = 99;
  record.result.outcome = fi::Outcome::kSdc;
  record.result.crash_reason = fi::CrashReason::kNone;
  record.result.injected_error = 0.1;  // not exactly representable: must
  record.result.output_error = 1e-17;  // round-trip bit-exactly anyway
  record.result.crash_site = 12;
  record.result.detector_fired = true;
  result.records.push_back(record);
  const auto result2 =
      parse_worker_chunk_result(make_worker_chunk_result(result), &error);
  ASSERT_TRUE(result2.has_value()) << error;
  EXPECT_TRUE(result2->ok);
  ASSERT_EQ(result2->records.size(), 1u);
  EXPECT_EQ(result2->records[0].id, 99u);
  EXPECT_EQ(result2->records[0].result.outcome, fi::Outcome::kSdc);
  EXPECT_EQ(result2->records[0].result.injected_error,
            record.result.injected_error);
  EXPECT_EQ(result2->records[0].result.output_error,
            record.result.output_error);
  EXPECT_TRUE(result2->records[0].result.detector_fired);
  EXPECT_EQ(result2->worker_deaths, 1u);
  EXPECT_EQ(result2->quarantined, 4u);

  WorkerChunkResult failed;
  failed.job = 5;
  failed.chunk = 3;
  failed.ok = false;
  failed.error = "pool died";
  const auto failed2 =
      parse_worker_chunk_result(make_worker_chunk_result(failed), &error);
  ASSERT_TRUE(failed2.has_value()) << error;
  EXPECT_FALSE(failed2->ok);
  EXPECT_EQ(failed2->error, "pool died");
  EXPECT_TRUE(failed2->records.empty());
}

TEST(WorkerProtocol, RejectsTruncationTrailingGarbageAndBadEnums) {
  WorkerChunk chunk;
  chunk.kernel = "cg";
  chunk.preset = "tiny";
  chunk.ids = {1, 2, 3};
  net::Frame frame = make_worker_chunk(chunk);
  std::string error;

  net::Frame truncated = frame;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_FALSE(parse_worker_chunk(truncated, &error).has_value());
  EXPECT_FALSE(error.empty());

  net::Frame padded = frame;
  padded.payload.push_back(0);
  EXPECT_FALSE(parse_worker_chunk(padded, &error).has_value());

  // An out-of-range outcome enum must not survive deserialisation into the
  // journal: it would poison the CampaignLog's own validation downstream.
  WorkerChunkResult result;
  result.ok = true;
  campaign::ExperimentRecord record;
  record.id = 1;
  result.records.push_back(record);
  net::Frame result_frame = make_worker_chunk_result(result);
  // Corrupt the outcome word (first u64 after job, chunk, ok, error-len,
  // record-count, id): flip it to a huge value by rebuilding the payload.
  WorkerChunkResult bad = result;
  bad.records[0].result.outcome = static_cast<fi::Outcome>(200);
  EXPECT_FALSE(
      parse_worker_chunk_result(make_worker_chunk_result(bad), &error)
          .has_value());
  EXPECT_NE(error.find("outcome"), std::string::npos) << error;

  // Zero-capacity workers are useless and rejected at parse time.
  WorkerHello hello;
  hello.capacity = 0;
  EXPECT_FALSE(
      parse_worker_hello(make_worker_hello(hello), &error).has_value());
}

// A forged frame can claim any element count it likes; the decoder must
// bound the count against the payload actually present instead of handing
// it to vector::reserve (length_error/bad_alloc used to escape the parse
// helper and kill the daemon's event loop -- one frame, one crash).
TEST(WorkerProtocol, RejectsHostileElementCountsWithoutAllocating) {
  std::string error;

  util::BinaryWriter result_writer;
  result_writer.put_u64(1);                     // job
  result_writer.put_u64(0);                     // chunk
  result_writer.put_u64(1);                     // ok
  result_writer.put_u64(0);                     // error (empty string)
  result_writer.put_u64(std::uint64_t{1} << 60);  // record count
  net::Frame result_frame;
  result_frame.type = static_cast<std::uint32_t>(MsgType::kWorkerChunkResult);
  result_frame.payload = result_writer.buffer();
  EXPECT_FALSE(parse_worker_chunk_result(result_frame, &error).has_value());
  EXPECT_NE(error.find("count"), std::string::npos) << error;

  util::BinaryWriter chunk_writer;
  chunk_writer.put_u64(1);  // job
  chunk_writer.put_u64(0);  // chunk
  chunk_writer.put_string("cg");
  chunk_writer.put_string("tiny");
  chunk_writer.put_u64(2);     // pool_workers
  chunk_writer.put_u64(1000);  // timeout_ms
  chunk_writer.put_u64(3);     // quarantine_after
  chunk_writer.put_u64(~std::uint64_t{0});  // id count
  net::Frame chunk_frame;
  chunk_frame.type = static_cast<std::uint32_t>(MsgType::kWorkerChunk);
  chunk_frame.payload = chunk_writer.buffer();
  EXPECT_FALSE(parse_worker_chunk(chunk_frame, &error).has_value());
  EXPECT_NE(error.find("count"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// In-process cluster fixture: Server + Service with fast lease timeouts,
// plus helpers to run real WorkerAgents and scripted fake workers.

class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!net::net_supported()) GTEST_SKIP() << "no socket support";
    dir_ = fs::temp_directory_path() /
           ("ftb_dispatch_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    stop();
    fs::remove_all(dir_);
  }

  void start(std::uint32_t lease_timeout_ms = 600,
             std::uint32_t straggler_ms = 1000,
             const std::string& worker_token = "",
             const fs::path& store_dir = {}) {
    ServiceOptions options;
    options.store_dir = (store_dir.empty() ? dir_ : store_dir).string();
    options.telemetry = &telemetry_;
    options.dispatch.heartbeat_interval_ms = 100;
    options.dispatch.lease_timeout_ms = lease_timeout_ms;
    options.dispatch.straggler_timeout_ms = straggler_ms;
    options.dispatch.quarantine_backoff_ms = 200;
    options.dispatch.worker_token = worker_token;
    telemetry_.set_enabled(true);
    service_ = std::make_unique<Service>(options);
    net::ServerOptions server_options;
    server_options.telemetry = &telemetry_;
    server_ = std::make_unique<net::Server>(*service_, server_options);
    service_->attach(server_.get());
    loop_ = std::thread([this] { server_->run(); });
  }

  void stop() {
    if (server_ == nullptr) return;
    service_->request_shutdown();
    if (loop_.joinable()) loop_.join();
    server_.reset();
    service_.reset();
  }

  /// Waits until the dispatcher counts `n` live workers (registration is
  /// asynchronous: hello travels through the event loop).
  bool wait_for_workers(std::size_t n, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      if (service_->dispatcher().live_workers() >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return service_->dispatcher().live_workers() >= n;
  }

  struct SubmitOutcome {
    std::optional<CampaignAccepted> accepted;
    std::optional<CampaignDone> done;
    std::string error;
  };

  /// Submits `req` and waits for its CampaignDone; with
  /// `stop_after_progress` > 0 the service starts draining once that many
  /// progress frames have arrived.
  SubmitOutcome submit_and_wait(const SubmitCampaignReq& req,
                                int stop_after_progress = -1) {
    SubmitOutcome outcome;
    net::ClientOptions copts;
    copts.port = server_->port();
    net::Client client(copts);
    if (!client.connect(&outcome.error)) return outcome;
    if (!client.send(make_submit_campaign(req), &outcome.error)) {
      return outcome;
    }
    const auto accepted = client.recv(&outcome.error, 60000);
    if (!accepted.has_value()) return outcome;
    outcome.accepted = parse_campaign_accepted(*accepted);
    if (!outcome.accepted.has_value()) return outcome;
    for (;;) {
      const auto frame = client.recv(&outcome.error, 120000);
      if (!frame.has_value()) return outcome;
      if (parse_campaign_progress(*frame).has_value()) {
        if (--stop_after_progress == 0) service_->request_shutdown();
        continue;
      }
      outcome.done = parse_campaign_done(*frame);
      return outcome;
    }
  }

  std::optional<RecomputeDone> recompute_and_wait(
      const SubmitRecomputeReq& req, std::string* error) {
    net::ClientOptions copts;
    copts.port = server_->port();
    net::Client client(copts);
    if (!client.connect(error)) return std::nullopt;
    if (!client.send(make_submit_recompute(req), error)) return std::nullopt;
    const auto accepted = client.recv(error, 60000);
    if (!accepted.has_value() || !parse_campaign_accepted(*accepted)) {
      return std::nullopt;
    }
    for (;;) {
      const auto frame = client.recv(error, 120000);
      if (!frame.has_value()) return std::nullopt;
      if (parse_campaign_progress(*frame).has_value()) continue;
      return parse_recompute_done(*frame);
    }
  }

  /// The journal bytes an uninterrupted local-only run of `req` produces.
  std::string reference_journal(const SubmitCampaignReq& req) {
    const fi::ProgramPtr program = kernels::make_program(
        req.kernel, kernels::preset_from_string(req.preset));
    const fi::GoldenRun golden = fi::run_golden(*program);
    util::Rng rng(req.seed);
    const auto ids =
        campaign::sample_uniform(rng, golden.sample_space_size(), req.batch);
    campaign::CheckpointOptions options;
    options.path = (dir_ / "reference.clog").string();
    options.flush_every = req.flush_every;
    const auto run =
        campaign::run_campaign_checkpointed(*program, golden, ids, options);
    return run.log.serialize();
  }

  std::string journal_bytes(const std::string& key) {
    std::string error;
    const auto log =
        campaign::CampaignLog::load((dir_ / (key + ".clog")).string(), &error);
    EXPECT_TRUE(log.has_value()) << error;
    return log.has_value() ? log->serialize() : std::string();
  }

  std::uint64_t counter(const char* name) {
    return telemetry_.metrics().counter(name).value();
  }

  telemetry::Telemetry telemetry_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<net::Server> server_;
  std::thread loop_;
  fs::path dir_;
};

/// A scripted worker speaking the wire protocol by hand, for failure-mode
/// tests the real WorkerAgent would never exhibit voluntarily.
class FakeWorker {
 public:
  explicit FakeWorker(std::uint16_t port) {
    net::ClientOptions options;
    options.port = port;
    client_ = std::make_unique<net::Client>(std::move(options));
  }

  bool hello(std::uint32_t capacity = 1, const std::string& token = "") {
    std::string error;
    if (!client_->connect(&error)) return false;
    WorkerHello hello;
    hello.name = "fake";
    hello.capacity = capacity;
    hello.token = token;
    if (!client_->send(make_worker_hello(hello), &error)) return false;
    const auto reply = client_->recv(&error, 5000);
    if (!reply.has_value()) return false;
    const auto ok = parse_worker_hello_ok(*reply, &error);
    if (!ok.has_value()) return false;
    worker_ = ok->worker;
    return true;
  }

  void heartbeat() {
    WorkerHeartbeat beat;
    beat.worker = worker_;
    beat.seq = ++seq_;
    client_->send(make_worker_heartbeat(beat));
  }

  std::optional<WorkerChunk> recv_chunk(std::uint32_t timeout_ms = 10000) {
    std::string error;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      const auto frame = client_->recv(&error, 250);
      if (!frame.has_value()) {
        if (!client_->connected()) return std::nullopt;
        heartbeat();  // stay live while waiting
        continue;
      }
      if (frame->type == static_cast<std::uint32_t>(MsgType::kWorkerChunk)) {
        return parse_worker_chunk(*frame);
      }
    }
    return std::nullopt;
  }

  bool send_result(const WorkerChunkResult& result) {
    return client_->send(make_worker_chunk_result(result));
  }

  void disconnect() { client_->close(); }

  std::uint64_t worker_id() const { return worker_; }

 private:
  std::unique_ptr<net::Client> client_;
  std::uint64_t worker_ = 0;
  std::uint64_t seq_ = 0;
};

// Two real WorkerAgents execute a campaign's chunks remotely; the journal
// and every record in it must be byte-identical to a local-only run.
TEST_F(DispatchTest, RemoteExecutionLeavesByteIdenticalJournal) {
  start();
  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "agent-a";
  agent_options.capacity = 2;
  WorkerAgent agent_a(agent_options);
  agent_options.name = "agent-b";
  WorkerAgent agent_b(agent_options);
  std::thread thread_a([&] { agent_a.serve(); });
  std::thread thread_b([&] { agent_b.serve(); });
  ASSERT_TRUE(wait_for_workers(2));

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 11;
  req.batch = 400;
  req.flush_every = 50;
  const SubmitOutcome outcome = submit_and_wait(req);
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 400u);

  agent_a.request_stop();
  agent_b.request_stop();
  thread_a.join();
  thread_b.join();

  EXPECT_GT(counter("dispatch.chunks_remote"), 0u)
      << "no chunk actually ran remotely";
  EXPECT_EQ(journal_bytes("daxpy@tiny@11"), reference_journal(req));
}

// A worker that takes a lease and dies (connection drop, as after SIGKILL)
// must not lose its chunk: the lease expires with the connection and the
// chunk re-runs elsewhere, leaving the exact local-only bytes.
TEST_F(DispatchTest, WorkerDyingMidChunkRequeuesWithoutLossOrDuplication) {
  start();
  FakeWorker fake(server_->port());
  ASSERT_TRUE(fake.hello());
  ASSERT_TRUE(wait_for_workers(1));

  std::atomic<bool> died{false};
  std::thread killer([&] {
    const auto chunk = fake.recv_chunk();
    if (chunk.has_value()) died.store(true);
    fake.disconnect();  // SIGKILL from the dispatcher's point of view
  });

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 21;
  req.batch = 300;
  req.flush_every = 30;
  const SubmitOutcome outcome = submit_and_wait(req);
  killer.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 300u);
  EXPECT_TRUE(died.load()) << "fake worker never got a lease";
  EXPECT_GT(counter("dispatch.workers_lost"), 0u);
  EXPECT_EQ(journal_bytes("daxpy@tiny@21"), reference_journal(req));
}

// A SIGSTOPped worker keeps its socket open but its heartbeat counter
// stops advancing; the dispatcher must expire the lease, re-run the chunk,
// and drop the straggler's late answer instead of duplicating records.
TEST_F(DispatchTest, SilentWorkerLosesLeaseAndLateResultIsDropped) {
  start(/*lease_timeout_ms=*/400, /*straggler_ms=*/600);
  FakeWorker fake(server_->port());
  ASSERT_TRUE(fake.hello());
  ASSERT_TRUE(wait_for_workers(1));

  std::optional<WorkerChunk> held;
  std::thread holder([&] {
    // Take one lease, then go silent (no heartbeat, no answer) -- recv
    // without heartbeats, mimicking SIGSTOP.
    std::string error;
    held = fake.recv_chunk(8000);
  });

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 31;
  req.batch = 200;
  req.flush_every = 25;
  const SubmitOutcome outcome = submit_and_wait(req);
  holder.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 200u);

  if (held.has_value()) {
    // The job is finished; a late (fabricated) answer for the stolen chunk
    // must be discarded as stale, not merged.
    WorkerChunkResult late;
    late.job = held->job;
    late.chunk = held->chunk;
    late.ok = true;
    for (const campaign::ExperimentId id : held->ids) {
      campaign::ExperimentRecord record;
      record.id = id;
      record.result.outcome = fi::Outcome::kMasked;
      late.records.push_back(record);
    }
    fake.send_result(late);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  EXPECT_EQ(journal_bytes("daxpy@tiny@31"), reference_journal(req));
}

// recv_chunk() heartbeats while idle, so the fake worker above only goes
// silent once it holds a lease.  This one instead answers every lease with
// ok=false: the dispatcher must charge the kills, quarantine the worker,
// and still finish the job with clean bytes.
TEST_F(DispatchTest, ChunkKillingWorkerIsQuarantinedAndJobStillFinishes) {
  start();
  FakeWorker fake(server_->port());
  ASSERT_TRUE(fake.hello());
  ASSERT_TRUE(wait_for_workers(1));

  std::atomic<bool> stop{false};
  std::thread saboteur([&] {
    while (!stop.load()) {
      const auto chunk = fake.recv_chunk(500);
      if (!chunk.has_value()) continue;
      WorkerChunkResult result;
      result.job = chunk->job;
      result.chunk = chunk->chunk;
      result.ok = false;
      result.error = "synthetic kill";
      if (!fake.send_result(result)) return;
    }
  });

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 41;
  req.batch = 300;
  req.flush_every = 30;
  const SubmitOutcome outcome = submit_and_wait(req);
  stop.store(true);
  saboteur.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 300u);
  EXPECT_GT(counter("dispatch.chunk_failures"), 0u);
  EXPECT_EQ(journal_bytes("daxpy@tiny@41"), reference_journal(req));
}

// First-writer-wins: a worker that answers the same lease twice gets its
// second copy dropped, and the journal holds each experiment exactly once.
TEST_F(DispatchTest, DuplicateChunkResultIsDroppedExactlyOnce) {
  start();
  FakeWorker fake(server_->port());
  ASSERT_TRUE(fake.hello());
  ASSERT_TRUE(wait_for_workers(1));

  std::atomic<bool> stop{false};
  std::atomic<int> doubled{0};
  std::thread echoer([&] {
    while (!stop.load()) {
      const auto chunk = fake.recv_chunk(500);
      if (!chunk.has_value()) continue;
      WorkerChunkResult result;
      result.job = chunk->job;
      result.chunk = chunk->chunk;
      result.ok = true;
      for (const campaign::ExperimentId id : chunk->ids) {
        campaign::ExperimentRecord record;
        record.id = id;
        record.result.outcome = fi::Outcome::kMasked;
        result.records.push_back(record);
      }
      if (!fake.send_result(result)) return;
      if (!fake.send_result(result)) return;  // duplicate on purpose
      doubled.fetch_add(1);
    }
  });

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 51;
  req.batch = 200;
  req.flush_every = 20;
  const SubmitOutcome outcome = submit_and_wait(req);
  stop.store(true);
  echoer.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 200u);
  EXPECT_GT(doubled.load(), 0);
  EXPECT_GT(counter("dispatch.duplicate_results"), 0u);

  // Exactly-once at the journal: every sampled id appears exactly once.
  std::string error;
  const auto log = campaign::CampaignLog::load(
      (dir_ / "daxpy@tiny@51.clog").string(), &error);
  ASSERT_TRUE(log.has_value()) << error;
  std::unordered_set<campaign::ExperimentId> seen;
  for (const campaign::ExperimentRecord& record : log->records()) {
    EXPECT_TRUE(seen.insert(record.id).second)
        << "duplicate id " << record.id << " in journal";
  }
  EXPECT_EQ(log->size(), outcome.done->executed);
}

// A connection that never registered cannot inject anything into the
// worker plane: its forged chunk results (which used to be processed under
// the local runner's holder id, letting an ok=false erase the runner's own
// claim) are dropped before they touch the job.
TEST_F(DispatchTest, ForgedResultFromUnregisteredConnIsDropped) {
  start();
  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "honest";
  WorkerAgent agent(agent_options);
  std::thread agent_thread([&] { agent.serve(); });
  ASSERT_TRUE(wait_for_workers(1));

  net::ClientOptions copts;
  copts.port = server_->port();
  net::Client forger(copts);
  std::string connect_error;
  ASSERT_TRUE(forger.connect(&connect_error)) << connect_error;
  std::atomic<bool> stop{false};
  std::thread spammer([&] {
    while (!stop.load()) {
      for (std::uint64_t job = 1; job <= 3 && !stop.load(); ++job) {
        for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
          WorkerChunkResult forged;
          forged.job = job;
          forged.chunk = chunk;
          forged.ok = false;
          forged.error = "forged kill";
          if (!forger.send(make_worker_chunk_result(forged))) return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 71;
  req.batch = 200;
  req.flush_every = 50;
  const SubmitOutcome outcome = submit_and_wait(req);
  stop.store(true);
  spammer.join();
  agent.request_stop();
  agent_thread.join();

  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(outcome.done->executed, 200u);
  EXPECT_GT(counter("dispatch.unregistered_results"), 0u)
      << "forged results never reached the dispatcher";
  EXPECT_EQ(journal_bytes("daxpy@tiny@71"), reference_journal(req));
}

// With --worker-token set, a hello carrying the wrong (or no) token is
// refused with an Error frame and the connection never becomes a worker;
// the right token registers and executes chunks as usual.
TEST_F(DispatchTest, WorkerTokenGatesRegistration) {
  start(/*lease_timeout_ms=*/600, /*straggler_ms=*/1000,
        /*worker_token=*/"sekrit");
  FakeWorker intruder(server_->port());
  EXPECT_FALSE(intruder.hello(/*capacity=*/1, /*token=*/"wrong"));
  EXPECT_EQ(service_->dispatcher().live_workers(), 0u);
  EXPECT_GT(counter("dispatch.workers_rejected"), 0u);

  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "tokened";
  agent_options.token = "sekrit";
  WorkerAgent agent(agent_options);
  std::thread agent_thread([&] { agent.serve(); });
  ASSERT_TRUE(wait_for_workers(1));

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 81;
  req.batch = 150;
  req.flush_every = 50;
  const SubmitOutcome outcome = submit_and_wait(req);
  agent.request_stop();
  agent_thread.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(journal_bytes("daxpy@tiny@81"), reference_journal(req));
}

// A second job for the same kernel@preset but different pool settings must
// not run under the first job's cached supervisor: the agent tears the
// supervisor down and reforks with the lease's settings.
TEST_F(DispatchTest, LeaseSettingsChangeRebuildsWorkerSupervisor) {
  start();
  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "rebuilder";
  agent_options.capacity = 4;  // take every chunk so both jobs run remotely
  WorkerAgent agent(agent_options);
  std::thread agent_thread([&] { agent.serve(); });
  ASSERT_TRUE(wait_for_workers(1));

  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 91;
  req.batch = 120;
  req.flush_every = 30;
  req.workers = 2;
  const SubmitOutcome first = submit_and_wait(req);
  ASSERT_TRUE(first.done.has_value()) << first.error;
  EXPECT_TRUE(first.done->ok) << first.done->error;

  req.seed = 92;
  req.workers = 3;  // same kernel@preset, different pool size
  const SubmitOutcome second = submit_and_wait(req);
  ASSERT_TRUE(second.done.has_value()) << second.error;
  EXPECT_TRUE(second.done->ok) << second.done->error;

  agent.request_stop();
  agent_thread.join();
  // Each job has exactly 4 chunks, so > 4 chunks run means the agent ran
  // leases from both jobs -- only then is a rebuild guaranteed observable.
  if (agent.stats().chunks_run > 4) {
    EXPECT_GE(agent.stats().sessions_rebuilt, 1u)
        << "second job's leases ran under the first job's pool settings";
  }
  EXPECT_EQ(journal_bytes("daxpy@tiny@92"), reference_journal(req));
}

// Zero live workers at job start: the distributed branch is not taken at
// all and the plain local path runs (this is the degradation guarantee).
TEST_F(DispatchTest, ZeroWorkersDegradesToLocalPath) {
  start();
  ASSERT_EQ(service_->dispatcher().live_workers(), 0u);
  SubmitCampaignReq req;
  req.kernel = "daxpy";
  req.preset = "tiny";
  req.seed = 61;
  req.batch = 150;
  req.flush_every = 50;
  const SubmitOutcome outcome = submit_and_wait(req);
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->ok) << outcome.done->error;
  EXPECT_EQ(counter("jobs.distributed"), 0u);
  EXPECT_EQ(counter("dispatch.chunks_remote"), 0u);
  EXPECT_EQ(journal_bytes("daxpy@tiny@61"), reference_journal(req));
}

// A drain with a live worker stops the distributed job at a chunk edge: it
// leases nothing new, journals the chunks that already finished, and the
// journal resumes to the local-only bytes.
TEST_F(DispatchTest, DrainWithLiveWorkerLeavesResumableJournal) {
  start();
  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "drained";
  WorkerAgent agent(agent_options);
  std::thread agent_thread([&] { agent.serve(); });
  ASSERT_TRUE(wait_for_workers(1));

  SubmitCampaignReq req;
  req.kernel = "cg";
  req.preset = "tiny";
  req.seed = 17;
  req.batch = 6000;
  req.flush_every = 16;
  const SubmitOutcome outcome = submit_and_wait(req, /*stop_after_progress=*/1);
  agent.request_stop();
  agent_thread.join();
  ASSERT_TRUE(outcome.done.has_value()) << outcome.error;
  EXPECT_TRUE(outcome.done->stopped) << outcome.done->error;
  EXPECT_LT(outcome.done->executed, req.batch);
  EXPECT_EQ(counter("jobs.distributed"), 1u);
  stop();

  const fi::ProgramPtr program = kernels::make_program("cg",
                                                       kernels::Preset::kTiny);
  const fi::GoldenRun golden = fi::run_golden(*program);
  util::Rng rng(req.seed);
  const auto ids =
      campaign::sample_uniform(rng, golden.sample_space_size(), req.batch);
  campaign::CheckpointOptions resume;
  resume.path = (dir_ / "cg@tiny@17.clog").string();
  resume.flush_every = 4096;
  const auto resumed =
      campaign::run_campaign_checkpointed(*program, golden, ids, resume);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.skipped, outcome.done->executed);
  EXPECT_EQ(journal_bytes("cg@tiny@17"), reference_journal(req));
}

// A recompute job with a live worker runs its dirty sections through the
// dispatcher, yet publishes exactly the composed artifact and boundary a
// local-only daemon does.
TEST_F(DispatchTest, DistributedRecomputeMatchesLocalRecompute) {
  start();
  WorkerAgentOptions agent_options;
  agent_options.port = server_->port();
  agent_options.name = "sections";
  agent_options.capacity = 2;
  WorkerAgent agent(agent_options);
  std::thread agent_thread([&] { agent.serve(); });
  ASSERT_TRUE(wait_for_workers(1));

  SubmitRecomputeReq req;
  req.kernel = "cg";
  req.preset = "tiny";
  req.seed = 7;
  req.section_batch = 64;
  req.flush_every = 16;
  std::string error;
  const auto distributed = recompute_and_wait(req, &error);
  agent.request_stop();
  agent_thread.join();
  ASSERT_TRUE(distributed.has_value()) << error;
  EXPECT_TRUE(distributed->ok) << distributed->error;
  EXPECT_GE(counter("jobs.distributed_sections"), 1u);

  const fs::path local_dir = dir_ / "local";
  fs::create_directories(local_dir);
  stop();
  start(600, 1000, "", local_dir);
  ASSERT_EQ(service_->dispatcher().live_workers(), 0u);
  const auto local = recompute_and_wait(req, &error);
  ASSERT_TRUE(local.has_value()) << error;
  EXPECT_TRUE(local->ok) << local->error;

  const std::string key = "cg@tiny@7";
  for (const char* suffix : {".compose", ".boundary"}) {
    SCOPED_TRACE(suffix);
    const std::string remote_bytes = file_bytes(dir_ / (key + suffix));
    EXPECT_FALSE(remote_bytes.empty());
    EXPECT_EQ(remote_bytes, file_bytes(local_dir / (key + suffix)));
  }
}

}  // namespace
}  // namespace ftb::service
