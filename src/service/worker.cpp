#include "service/worker.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "kernels/registry.h"
#include "service/dispatch.h"
#include "util/retry.h"

namespace ftb::service {

WorkerAgent::WorkerAgent(WorkerAgentOptions options)
    : options_(std::move(options)) {}

WorkerAgent::~WorkerAgent() {
  request_stop();
  if (heartbeat_.joinable()) {
    heartbeat_stop_.store(true, std::memory_order_relaxed);
    heartbeat_.join();
  }
}

void WorkerAgent::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
}

WorkerAgentStats WorkerAgent::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

bool WorkerAgent::send_frame(const net::Frame& frame, std::string* error) {
  const std::vector<std::uint8_t> bytes = net::encode_frame(frame);
  std::lock_guard<std::mutex> lock(send_mutex_);
  if (send_failed_.load(std::memory_order_relaxed)) {
    if (error != nullptr) *error = "connection already failed";
    return false;
  }
  if (!net::send_all(fd_.get(), bytes.data(), bytes.size(), error)) {
    // Do not close the fd here: serve()'s recv loop owns it and will see
    // the failure through this flag (or the peer's RST) promptly.
    send_failed_.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void WorkerAgent::heartbeat_loop(std::uint32_t interval_ms) {
  std::uint64_t seq = 0;
  const auto interval = std::chrono::milliseconds(std::max(1u, interval_ms));
  while (!heartbeat_stop_.load(std::memory_order_relaxed) &&
         !send_failed_.load(std::memory_order_relaxed)) {
    WorkerHeartbeat beat;
    beat.worker = worker_id_.load(std::memory_order_relaxed);
    beat.seq = ++seq;
    if (!send_frame(make_worker_heartbeat(beat), nullptr)) break;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.heartbeats_sent;
    }
    // Sleep in small slices so request_stop() is honoured quickly even
    // with a long advertised interval.
    auto remaining = interval;
    while (remaining.count() > 0 &&
           !heartbeat_stop_.load(std::memory_order_relaxed)) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(50));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
  }
}

WorkerChunkResult WorkerAgent::run_chunk(const WorkerChunk& chunk) {
  WorkerChunkResult result;
  result.job = chunk.job;
  result.chunk = chunk.chunk;
  const std::string key = chunk.kernel + "@" + chunk.preset;
  telemetry::SpanScope span(options_.telemetry, "workerd.chunk", "workerd");
  span.arg("experiments", static_cast<double>(chunk.ids.size()));
  try {
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      Session session;
      session.program = kernels::make_program(
          chunk.kernel, kernels::preset_from_string(chunk.preset));
      session.golden = fi::run_golden(*session.program);
      it = sessions_.emplace(key, std::move(session)).first;
    }
    Session& session = it->second;
    const std::uint32_t pool_workers =
        chunk.pool_workers != 0 ? chunk.pool_workers : options_.pool_workers;
    if (session.supervisor &&
        (session.pool_workers != pool_workers ||
         session.timeout_ms != chunk.timeout_ms ||
         session.quarantine_after != chunk.quarantine_after)) {
      // The lease carries different pool settings than the cached
      // supervisor was forked with (a new job for the same kernel@preset):
      // refork rather than silently running under the old configuration.
      session.supervisor.reset();
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.sessions_rebuilt;
    }
    if (!session.supervisor) {
      // Same settings as the service's own job plane.  A pool that degrades
      // to nothing fails the chunk; the dispatcher requeues it elsewhere.
      session.supervisor = std::make_unique<campaign::CampaignSupervisor>(
          *session.program, session.golden,
          daemon_supervisor(pool_workers, chunk.timeout_ms,
                            chunk.quarantine_after, options_.use_snapshots,
                            options_.snapshot_interval, options_.telemetry));
      session.last = session.supervisor->stats();
      session.pool_workers = pool_workers;
      session.timeout_ms = chunk.timeout_ms;
      session.quarantine_after = chunk.quarantine_after;
    }
    result.records = session.supervisor->run(chunk.ids);
    const campaign::SupervisorStats now = session.supervisor->stats();
    result.worker_deaths = now.worker_deaths - session.last.worker_deaths;
    result.worker_hangs = now.worker_hangs - session.last.worker_hangs;
    result.requeued =
        now.experiments_requeued - session.last.experiments_requeued;
    result.quarantined = now.quarantined - session.last.quarantined;
    session.last = now;
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
    result.records.clear();
    // The supervisor is in an unknown state (likely an empty pool); tear
    // it down so the next lease for this config reforks from scratch.
    sessions_.erase(key);
  }
  return result;
}

bool WorkerAgent::serve(std::string* error) {
  stop_.store(false, std::memory_order_relaxed);
  send_failed_.store(false, std::memory_order_relaxed);
  worker_id_.store(0, std::memory_order_relaxed);
  if (heartbeat_.joinable()) {
    heartbeat_stop_.store(true, std::memory_order_relaxed);
    heartbeat_.join();
  }
  heartbeat_stop_.store(false, std::memory_order_relaxed);

  std::string last_error = "connect was never attempted";
  const bool connected = util::retry_with_backoff(options_.connect_retry, [&] {
    if (stop_.load(std::memory_order_relaxed)) return true;  // give up early
    fd_ = net::connect_tcp(options_.host, options_.port, &last_error);
    return fd_.valid();
  });
  if (!connected || !fd_.valid()) {
    if (error != nullptr) *error = last_error;
    return stop_.load(std::memory_order_relaxed);
  }

  WorkerHello hello;
  hello.name = options_.name;
  hello.capacity = std::max<std::uint32_t>(1, options_.capacity);
  hello.pool_workers = options_.pool_workers;
  hello.token = options_.token;
  if (!send_frame(make_worker_hello(hello), error)) {
    fd_.reset();
    return false;
  }

  net::FrameDecoder decoder({options_.max_frame_payload});
  const auto recv_frame = [&](std::uint32_t timeout_ms, std::string* why)
      -> std::optional<net::Frame> {
    net::Frame frame;
    for (;;) {
      std::string pop_error;
      switch (decoder.pop(&frame, &pop_error)) {
        case net::FrameDecoder::Status::kFrame:
          return frame;
        case net::FrameDecoder::Status::kError:
          if (why != nullptr) *why = pop_error;
          fd_.reset();
          return std::nullopt;
        case net::FrameDecoder::Status::kNeedMore:
          break;
      }
      std::uint8_t buf[16384];
      const long n =
          net::recv_some(fd_.get(), buf, sizeof(buf), timeout_ms, why);
      if (n < 0) return std::nullopt;  // timeout or error, diagnosed
      if (n == 0) {
        if (why != nullptr) *why = "server closed the connection";
        fd_.reset();
        return std::nullopt;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  };

  std::string hello_error;
  const auto reply = recv_frame(options_.hello_timeout_ms, &hello_error);
  if (!reply.has_value()) {
    if (error != nullptr) *error = "registration failed: " + hello_error;
    fd_.reset();
    return false;
  }
  const auto ok = parse_worker_hello_ok(*reply, &hello_error);
  if (!ok.has_value()) {
    // A refusal (e.g. token mismatch) arrives as an Error frame; surface
    // its message instead of "frame is not a WorkerHelloOk".
    if (const auto refused = parse_error(*reply)) {
      hello_error = refused->message;
    }
    if (error != nullptr) *error = "registration failed: " + hello_error;
    fd_.reset();
    return false;
  }
  worker_id_.store(ok->worker, std::memory_order_relaxed);
  const std::uint32_t interval_ms = std::max(1u, ok->heartbeat_interval_ms);
  heartbeat_ = std::thread([this, interval_ms] { heartbeat_loop(interval_ms); });

  bool clean = true;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (send_failed_.load(std::memory_order_relaxed)) {
      if (error != nullptr) *error = "send failed (server gone?)";
      clean = false;
      break;
    }
    std::string recv_error;
    const auto frame = recv_frame(interval_ms, &recv_error);
    if (!frame.has_value()) {
      if (!fd_.valid()) {  // decode error or orderly close, not a timeout
        if (error != nullptr) *error = recv_error;
        clean = false;
        break;
      }
      continue;  // timeout: loop to re-check the stop flag
    }
    if (frame->type != static_cast<std::uint32_t>(MsgType::kWorkerChunk)) {
      continue;  // the worker plane ignores anything else
    }
    std::string parse_error;
    const auto chunk = parse_worker_chunk(*frame, &parse_error);
    if (!chunk.has_value()) {
      if (error != nullptr) *error = "bad chunk frame: " + parse_error;
      clean = false;
      break;
    }
    WorkerChunkResult result = run_chunk(*chunk);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.chunks_run;
      if (!result.ok) ++stats_.chunks_failed;
      stats_.records_sent += result.records.size();
    }
    std::string send_error;
    if (!send_frame(make_worker_chunk_result(result), &send_error)) {
      if (error != nullptr) *error = send_error;
      clean = false;
      break;
    }
  }

  heartbeat_stop_.store(true, std::memory_order_relaxed);
  if (heartbeat_.joinable()) heartbeat_.join();
  fd_.reset();
  return clean;
}

}  // namespace ftb::service
