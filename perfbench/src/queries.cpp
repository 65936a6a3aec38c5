// query_read and query_during_campaign: the query plane of an in-process
// ftb_served (Service + Server) under an open-loop request stream.
//
// The stream is open loop -- independent users, not callers waiting on each
// other -- so every request has a due time fixed in advance and latency is
// counted from it: a stall that delays later sends shows in their latency.
// One load thread drives all connections.
#include <poll.h>
#include <unistd.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "boundary/predictor.h"
#include "boundary/serialize.h"
#include "fi/fpbits.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/protocol.h"
#include "service/service.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace ftb::perfbench {

namespace fs = std::filesystem;

namespace {

constexpr double kFixedRate = 5000.0;   // well below saturation
constexpr int kConnections = 3;
constexpr double kLimitUs = 500.0;       // query_max_qps p99 limit
constexpr double kFailedUs = 1e6;        // a failed request's latency
constexpr std::int64_t kReplyTimeoutNs = 1'000'000'000;
constexpr std::uint64_t kCheckEvery = 97;  // verify every 97th reply
// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

struct Query {
  bool site_query = false;  // PredictSite; otherwise PredictFlip
  std::string key;
  std::uint64_t site = 0;
  std::uint32_t bit = 0;
  std::vector<std::uint8_t> wire;  // the encoded request frame
};

/// A seeded mix of 90% PredictFlip and 10% PredictSite over the store's
/// boundaries, sites and bits.  The stream cycles through it.
std::vector<Query> make_queries(std::uint64_t seed,
                                const std::vector<std::pair<std::string, std::uint64_t>>& keys) {
  constexpr std::size_t kQueries = 1 << 13;
  util::Rng rng(seed ^ 0x71e5u);
  std::vector<Query> queries(kQueries);
  for (Query& q : queries) {
    const auto& [key, sites] = keys[rng.next_below(keys.size())];
    q.key = key;
    q.site = rng.next_below(sites);
    q.site_query = rng.next_below(10) == 0;
    if (q.site_query) {
      q.wire = net::encode_frame(service::make_predict_site({q.key, q.site}));
    } else {
      q.bit = static_cast<std::uint32_t>(rng.next_below(64));
      q.wire = net::encode_frame(service::make_predict_flip({q.key, q.site, q.bit}));
    }
  }
  return queries;
}

/// True when `reply` is exactly what the store's boundary predicts locally.
bool reply_matches(const Query& q, const net::Frame& reply,
                   const service::BoundaryStore& store) {
  const auto entry = store.find(q.key);
  if (entry == nullptr) return false;
  const double golden = entry->golden.trace[q.site];
  const double threshold = entry->boundary.threshold(q.site);
  if (q.site_query) {
    const auto ok = service::parse_predict_site_ok(reply);
    const boundary::SitePrediction expect =
        boundary::predict_site(entry->boundary, q.site, golden);
    return ok.has_value() && ok->masked == expect.masked && ok->sdc == expect.sdc &&
           ok->crash == expect.crash && ok->sdc_ratio == expect.sdc_ratio() &&
           ok->threshold == threshold && ok->golden_value == golden;
  }
  const auto ok = service::parse_predict_flip_ok(reply);
  const int bit = static_cast<int>(q.bit);
  const double injected = fi::flip_is_nonfinite(golden, bit)
                              ? std::numeric_limits<double>::infinity()
                              : fi::bit_flip_error(golden, bit);
  return ok.has_value() &&
         ok->outcome == static_cast<std::uint32_t>(
                            boundary::predict_flip(entry->boundary, q.site, golden, bit)) &&
         ok->threshold == threshold && ok->injected_error == injected;
}

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

struct Stream {
  double rate = 0.0;
  /// Latency of every request from its due time; a failed request counts
  /// as kFailedUs, so it misses any latency limit.
  std::vector<double> latency_us;
  std::vector<double> lag_us;  // how late each request was sent
  std::uint64_t sent = 0, answered = 0, busy = 0, errors = 0, timeouts = 0;
  bool backlog_grew = false;
  std::vector<std::pair<std::uint32_t, net::Frame>> samples;  // for checks
  std::int64_t first_due_ns = 0;
  std::int64_t last_reply_ns = 0;

  std::uint64_t failures() const { return busy + errors + timeouts; }
  double quantile_us(double q) const { return quantile(latency_us, q); }
  /// The server kept up: at least 95% answered and no growing backlog.
  bool keeps_up() const {
    return !backlog_grew && static_cast<double>(answered) >= 0.95 * static_cast<double>(sent);
  }
  bool meets_limit() const { return keeps_up() && quantile_us(0.99) <= kLimitUs; }
  /// Replies per second from the first due time to the last reply.
  double answered_per_s() const {
    return last_reply_ns > first_due_ns
               ? static_cast<double>(answered) * 1e9 /
                     static_cast<double>(last_reply_ns - first_due_ns)
               : 0.0;
  }
};

class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, const std::vector<Query>& queries)
      : queries_(queries), port_(port) {
    connect();
  }

  /// Sends rate * seconds requests on a fixed schedule, round-robin over
  /// the connections, and collects every reply (or times it out).  The
  /// generator stands in for clients on other machines, so it busy-polls
  /// instead of sleeping: its own wake-ups would otherwise add to every
  /// latency it measures.
  Stream run(double rate, double seconds, std::uint64_t check_every) {
    if (broken_) connect();  // late replies of a timed-out stream are dropped
    Stream out;
    out.rate = rate;
    const auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
    const double period_ns = 1e9 / rate;
    const std::int64_t start = now_ns() + 1'000'000;
    const auto due = [&](std::uint64_t i) {
      return start + static_cast<std::int64_t>(static_cast<double>(i) * period_ns);
    };
    std::vector<double> backlog;  // outstanding requests, sampled every 5 ms
    std::int64_t next_sample = start;
    std::uint64_t next = 0;
    std::vector<pollfd> fds(connections_.size());
    out.latency_us.reserve(total);  // no reallocation pauses mid-stream
    out.lag_us.reserve(total);
    out.first_due_ns = start;
    for (;;) {
      std::int64_t now = now_ns();
      for (; next < total && due(next) <= now; ++next) {
        Connection& conn = connections_[next % connections_.size()];
        const auto query = static_cast<std::uint32_t>(cursor_++ % queries_.size());
        const std::vector<std::uint8_t>& wire = queries_[query].wire;
        conn.out.insert(conn.out.end(), wire.begin(), wire.end());
        conn.inflight.push_back({due(next), query, check_every != 0 && next % check_every == 0});
        out.lag_us.push_back(static_cast<double>(now - due(next)) / 1e3);
        ++out.sent;
      }
      std::size_t outstanding = 0;
      for (Connection& conn : connections_) {
        flush(conn);
        outstanding += conn.inflight.size();
      }
      if (next == total && outstanding == 0) break;
      if (now >= next_sample && next < total) {
        backlog.push_back(static_cast<double>(outstanding));
        next_sample += 5'000'000;
      }
      if (next == total && now > due(total) + kReplyTimeoutNs) {
        time_out(out);
        break;
      }
      poll_once(fds, out);
    }
    // Backlog grows when the last third of the stream typically holds
    // clearly more outstanding requests than the first third.
    if (backlog.size() >= 6) {
      const auto third = static_cast<std::ptrdiff_t>(backlog.size() / 3);
      const double first = median({backlog.begin(), backlog.begin() + third});
      const double last = median({backlog.end() - third, backlog.end()});
      out.backlog_grew = last > 2.0 * first + 64.0;
    }
    return out;
  }

 private:
  struct Pending {
    std::int64_t due_ns;
    std::uint32_t query;
    bool check;
  };
  struct Connection {
    net::Fd fd;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_offset = 0;
    std::deque<Pending> inflight;
  };

  void flush(Connection& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_offset,
                               conn.out.size() - conn.out_offset,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n <= 0) {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        broken_ = true;
        return;
      }
      conn.out_offset += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_offset = 0;
  }

  void receive(Connection& conn, Stream& out) {
    std::uint8_t buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd.get(), buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {  // peer closed or failed: everything in flight is lost
        out.errors += conn.inflight.size();
        fail_inflight(conn, out);
        broken_ = true;
        return;
      }
      conn.decoder.feed(buffer, static_cast<std::size_t>(n));
    }
    const std::int64_t now = now_ns();
    net::Frame frame;
    while (conn.decoder.pop(&frame) == net::FrameDecoder::Status::kFrame) {
      if (conn.inflight.empty()) {
        ++out.errors;  // a reply nobody asked for
        continue;
      }
      const Pending pending = conn.inflight.front();
      conn.inflight.pop_front();
      const auto type = static_cast<service::MsgType>(frame.type);
      const bool site_query = queries_[pending.query].site_query;
      if (type == service::MsgType::kBusy) {
        ++out.busy;
        out.latency_us.push_back(kFailedUs);
      } else if (type == (site_query ? service::MsgType::kPredictSiteOk
                                     : service::MsgType::kPredictFlipOk)) {
        ++out.answered;
        out.last_reply_ns = now;
        out.latency_us.push_back(static_cast<double>(now - pending.due_ns) / 1e3);
        if (pending.check) out.samples.emplace_back(pending.query, frame);
      } else {
        ++out.errors;
        out.latency_us.push_back(kFailedUs);
      }
    }
    if (conn.decoder.poisoned()) broken_ = true;
  }

  /// (Re)opens every connection.  After a stream broke -- a timeout, a
  /// closed or corrupt connection -- replies can no longer be matched to
  /// requests by order, so the next stream starts on fresh connections.
  void connect() {
    connections_.clear();
    for (int c = 0; c < kConnections; ++c) {
      std::string error;
      Connection conn;
      conn.fd = net::connect_tcp("127.0.0.1", port_, &error);
      if (!conn.fd.valid() || !net::set_nonblocking(conn.fd.get())) {
        throw std::runtime_error("connect failed: " + error);
      }
      connections_.push_back(std::move(conn));
    }
    broken_ = false;
  }

  /// Waits for nothing: polls every connection once and takes what arrived.
  void poll_once(std::vector<pollfd>& fds, Stream& out) {
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      fds[c].fd = connections_[c].fd.get();
      fds[c].events = static_cast<short>(
          POLLIN | (connections_[c].out.size() > connections_[c].out_offset ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 0) <= 0) return;
    for (std::size_t c = 0; c < connections_.size(); ++c) {
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) receive(connections_[c], out);
    }
  }

  /// Gives up on every request still in flight.
  void time_out(Stream& out) {
    for (Connection& conn : connections_) {
      out.timeouts += conn.inflight.size();
      fail_inflight(conn, out);
    }
    broken_ = true;  // replies may still arrive; the stream is out of step
  }

  static void fail_inflight(Connection& conn, Stream& out) {
    out.latency_us.insert(out.latency_us.end(), conn.inflight.size(), kFailedUs);
    conn.inflight.clear();
  }

  const std::vector<Query>& queries_;
  std::uint16_t port_;
  std::vector<Connection> connections_;
  std::uint64_t cursor_ = 0;  // the query mix continues across streams
  bool broken_ = false;
};

void report_stream(const char* name, const Stream& s) {

  std::printf("  %-11s rate %7.0f/s  sent %7llu  p50 %7.1f  p99 %8.1f  "
              "max %8.1f us  lag p99 %6.1f us  failed %llu%s\n",
              name, s.rate, static_cast<unsigned long long>(s.sent),
              s.quantile_us(0.5), s.quantile_us(0.99),
              s.quantile_us(1.0), quantile(s.lag_us, 0.99),
              static_cast<unsigned long long>(s.failures()),
              s.backlog_grew ? "  backlog grew" : "");
}

/// The rate ladder: geometric steps up from twice the fixed rate, then
/// bisection between the last rate the server kept up with and the first it
/// did not.  A rate counts as lost only when two rungs at it fail, so one
/// host stall does not end the climb.  Each rung is reported as it ends.
struct Ladder {
  double sustained_per_s = 0.0;  // replies/s on the fastest rung kept up with
  double max_qps = 0.0;          // fastest rate whose p99 met kLimitUs
};

Ladder climb(LoadGenerator& generator, double seconds) {
  constexpr double kRungSeconds = 0.5;
  const auto begin = Clock::now();
  const auto time_left = [&] { return seconds - seconds_since(begin) > 2 * kRungSeconds; };
  Ladder ladder;
  const auto keeps_up = [&](double rate) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let queues drain
      const Stream rung = generator.run(rate, kRungSeconds, 0);
      report_stream(rung.meets_limit() ? "met p99" : rung.keeps_up() ? "kept up" : "fell behind",
                    rung);
      if (rung.meets_limit()) ladder.max_qps = std::max(ladder.max_qps, rate);
      if (rung.keeps_up()) {
        ladder.sustained_per_s = std::max(ladder.sustained_per_s, rung.answered_per_s());
        return true;
      }
    }
    return false;
  };
  double held = 0.0, broke = 0.0;
  for (double rate = 2 * kFixedRate; time_left(); rate *= 1.5) {
    if (!keeps_up(rate)) {
      broke = rate;
      break;
    }
    held = rate;
  }
  while (broke > 0 && held > 0 && broke / held > 1.05 && time_left()) {
    const double rate = std::sqrt(held * broke);
    (keeps_up(rate) ? held : broke) = rate;
  }
  return ladder;
}

// ---------------------------------------------------------------------------
// In-process ftb_served
// ---------------------------------------------------------------------------

/// Which CPUs the load generator, the server's event loop and the campaign
/// plane (job runner, pool workers, rebuild threads) run on.  An empty set
/// leaves those threads to the scheduler.
struct Placement {
  std::vector<int> load;
  std::vector<int> query;
  std::vector<int> campaign;
};

/// With four CPUs or more: the generator on the first, the event loop on
/// the rest of the lower half, and -- `with_campaign` -- the campaign plane
/// on the upper half, as `ftb_served --campaign-cpus` places it.  The
/// busy-polling generator and the event loop then never share a CPU (the
/// scheduler likes to wake a socket's reader on its writer's CPU), and the
/// stream measures the read path beside the jobs, not the scheduler between
/// them.  Fewer CPUs leave everything to the scheduler.
Placement place_planes(bool with_campaign) {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 4) return {};
  const auto half = static_cast<std::ptrdiff_t>(cpus.size() / 2);
  Placement placement{{cpus.front()}, {cpus.begin() + 1, cpus.begin() + half}, {}};
  if (!with_campaign) return placement;
  placement.campaign.assign(cpus.begin() + half, cpus.end());
  // The library's rebuild pool sizes itself and starts its threads on first
  // use; the threads inherit the mask of the thread that starts them.
  ::setenv("FTB_THREADS", std::to_string(placement.campaign.size()).c_str(), 1);
  std::thread([&] {
    pin_to(placement.campaign);
    util::default_pool();
  }).join();
  return placement;
}

/// Service + Server on an ephemeral loopback port, its store holding the
/// three paper boundaries built by the library path.
struct Served {
  Served(const fs::path& root, std::uint64_t seed, const Placement& placement)
      : dir(root) {
    fs::remove_all(dir);
    fs::create_directories(dir / "store");
    fs::create_directories(dir / "lib");
    service::ServiceOptions options;
    options.store_dir = (dir / "store").string();
    options.campaign_cpus = placement.campaign;
    svc = std::make_unique<service::Service>(options);
    server = std::make_unique<net::Server>(*svc);
    svc->attach(server.get());
    loop = std::thread([this, cpus = placement.query] {
      if (!cpus.empty()) pin_to(cpus);
      server->run();
    });
    // The benchmark's own builds rebuild on a pool of their own, so that the
    // daemon's pool keeps the campaign plane's CPUs.
    util::ThreadPool pool(static_cast<std::size_t>(load_threads()));
    for (const std::string& name : kPaperKernels) {
      kernels.push_back(prepare_paper_kernel(name, seed, kPaperBatch));
      artifacts.push_back(build_and_publish(kernels.back(), dir / "lib", load_threads(),
                                            pool, svc->store(), seed));
      keys.emplace_back(service::StoreKey{name, "paper", seed}.str(),
                        kernels.back().golden.dynamic_instructions());
    }
  }
  ~Served() {
    svc->request_shutdown();
    loop.join();
  }
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;

  fs::path dir;
  std::unique_ptr<service::Service> svc;
  std::unique_ptr<net::Server> server;
  std::thread loop;  // joined before server and svc are destroyed
  std::vector<Prepared> kernels;
  std::vector<std::string> artifacts;
  std::vector<std::pair<std::string, std::uint64_t>> keys;  // key, sites
};

std::unique_ptr<Served> set_up(const Options& options, double& setup_s,
                               const Placement& placement) {
  std::unique_ptr<Served> served;
  std::vector<double> samples;
  time_setup(samples, [&] {
    served.reset();
    served = std::make_unique<Served>(options.work_dir, options.seed, placement);
  }, 0.5);
  setup_s = median(samples);
  return served;
}

/// Verifies the sampled replies of a stream that had no failures (after a
/// failure, replies can no longer be matched to requests by order).
void check_replies(Result& result, const Stream& stream,
                   const std::vector<Query>& queries,
                   const service::BoundaryStore& store) {
  if (stream.failures() != 0) return;
  std::size_t wrong = 0;
  for (const auto& [query, frame] : stream.samples) {
    wrong += !reply_matches(queries[query], frame, store);
  }
  result.check(!stream.samples.empty(), "no query replies were sampled");
  result.check(wrong == 0, std::to_string(wrong) + " of " +
                               std::to_string(stream.samples.size()) +
                               " sampled replies differ from local predictions");
}


/// Per-layer probes of the query path, timed around public calls.
void probe_query_path(Result& result, Served& served, const std::vector<Query>& queries,
                      std::uint16_t port, Trace& trace) {
  auto& m = result.metrics;
  const service::BoundaryStore& store = served.svc->store();
  {
    net::ClientOptions client_options;
    client_options.port = port;
    net::Client client(client_options);
    std::vector<double> rtt_us;
    for (int i = 0; i < 200; ++i) {
      Trace::Span span(trace, "net.ping");
      const auto begin = Clock::now();
      const auto reply = client.call(service::make_ping());
      rtt_us.push_back(seconds_since(begin) * 1e6);
      result.check(reply.has_value() &&
                       reply->type == static_cast<std::uint32_t>(service::MsgType::kPong),
                   "ping was not answered with a pong");
    }
    m["net.ping_rtt_us"] = median(rtt_us);
  }
  std::vector<net::Frame> frames;
  {
    Trace::Span span(trace, "service.protocol.encode");
    const auto begin = Clock::now();
    for (const Query& q : queries) {
      frames.push_back(service::make_predict_flip({q.key, q.site, q.bit}));
    }
    m["service.protocol.encode_ns"] = seconds_since(begin) * 1e9 / queries.size();
  }
  {
    Trace::Span span(trace, "service.protocol.decode");
    std::size_t parsed = 0;
    const auto begin = Clock::now();
    for (const net::Frame& frame : frames) parsed += service::parse_predict_flip(frame).has_value();
    m["service.protocol.decode_ns"] = seconds_since(begin) * 1e9 / frames.size();
    result.check(parsed == frames.size(), "encoded queries do not parse");
  }
  {
    Trace::Span span(trace, "service.store.find");
    std::size_t found = 0;
    const auto begin = Clock::now();
    for (const Query& q : queries) found += store.find(q.key) != nullptr;
    m["service.store.find_ns"] = seconds_since(begin) * 1e9 / queries.size();
    result.check(found == queries.size(), "store lookups missed");
  }
  const auto entry = store.find(served.keys.front().first);
  {
    Trace::Span span(trace, "boundary.predict_flip");
    m["boundary.predict_ns"] = probe_predict_ns(entry->boundary, entry->golden, 7);
  }
  std::vector<double> publish_ms;
  for (int i = 0; i < 3; ++i) {
    Trace::Span span(trace, "service.store.publish");
    const auto begin = Clock::now();
    served.svc->store().publish(entry->key, entry->boundary);
    publish_ms.push_back(seconds_since(begin) * 1e3);
  }
  m["service.store.publish_ms"] = median(publish_ms);
}

void add_stream_layers(Result& result, const Stream& stream) {
  result.metrics["net.gen_lag_p99_us"] = quantile(stream.lag_us, 0.99);
  result.metrics["service.busy_frac"] =
      stream.sent ? static_cast<double>(stream.busy) / static_cast<double>(stream.sent) : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// query_read
// ---------------------------------------------------------------------------

Result run_query_read(const Options& options) {
  Result result;
  const Placement placement = place_planes(false);
  double setup_s = 0.0;
  std::unique_ptr<Served> served = set_up(options, setup_s, placement);
  if (!placement.load.empty()) pin_to(placement.load);
  const std::uint16_t port = served->server->port();
  const std::vector<Query> queries = make_queries(options.seed, served->keys);
  LoadGenerator generator(port, queries);
  Trace trace(options.trace);
  const auto begin = Clock::now();

  // The fixed rate first; the rest of the run climbs the ladder.  A traced
  // run splits the fixed-rate window into an untraced and a traced half.
  const double fixed_s = options.seconds * (options.trace ? 0.3 : 0.45);
  const Stream fixed = generator.run(kFixedRate, fixed_s, kCheckEvery);
  check_replies(result, fixed, queries, served->svc->store());
  result.attempted += fixed.sent;
  result.failed += fixed.failures();
  std::printf("query_read: %d connections, open loop, %zu-query mix\n",
              kConnections, queries.size());
  report_stream("fixed", fixed);
  result.metrics["setup_s"] = setup_s;
  result.metrics["latency_p50_ms"] = fixed.quantile_us(0.5) / 1e3;

  if (options.trace) {
    Stream traced;
    {
      Trace::Span span(trace, "net.stream");
      traced = generator.run(kFixedRate, fixed_s, kCheckEvery);
    }
    check_replies(result, traced, queries, served->svc->store());
    result.attempted += traced.sent;
    result.failed += traced.failures();
    report_stream("traced", traced);
    result.metrics["trace.overhead_frac"] =
        traced.quantile_us(0.5) / fixed.quantile_us(0.5) - 1.0;
    result.metrics["net.self_s"] = trace.layer_self_seconds()["net"];
    add_stream_layers(result, fixed);
    probe_query_path(result, *served, queries, port, trace);
    trace.write_json(options.trace_dir / ("query_read-" + std::to_string(options.seed) + ".json"));
    return result;
  }

  const Ladder ladder = climb(generator, options.seconds - seconds_since(begin));
  report("query_sustained_qps", ladder.sustained_per_s, "1/s",
         "fastest rung with >= 95% answered and no growing backlog");
  report("query_max_qps", ladder.max_qps, "1/s",
         "fastest rung with p99 <= " + std::to_string(static_cast<int>(kLimitUs)) + " us");
  report("query_p50_us", fixed.quantile_us(0.5), "us",
         std::to_string(fixed.sent) + " samples");
  report("query_p99_us", fixed.quantile_us(0.99), "us");
  report("net.gen_lag_p99_us", quantile(fixed.lag_us, 0.99), "us");
  result.metrics["throughput_per_s"] = ladder.sustained_per_s;
  return result;
}

// ---------------------------------------------------------------------------
// query_during_campaign
// ---------------------------------------------------------------------------

namespace {

struct JobRecord {
  std::int64_t submit_ns = 0;
  std::int64_t accepted_ns = 0;
  std::int64_t first_progress_ns = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  std::uint64_t executed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t busy = 0;
  std::string error;
};

/// Submits paper CG campaign jobs back to back over the wire until told to
/// stop, deleting each job's journal before the next so that every job does
/// the full campaign.
class JobSubmitter {
 public:
  JobSubmitter(std::uint16_t port, const fs::path& store_dir, std::uint64_t seed) {
    request_.kernel = "cg";
    request_.preset = "paper";
    request_.seed = seed;
    request_.batch = kPaperBatch;
    request_.workers = 2;
    request_.flush_every = kFlushEvery;
    journal_ = store_dir / (service::StoreKey{"cg", "paper", seed}.str() + ".clog");
    thread_ = std::thread([this, port] { drive(port); });
  }
  ~JobSubmitter() { stop(); }
  JobSubmitter(const JobSubmitter&) = delete;
  JobSubmitter& operator=(const JobSubmitter&) = delete;

  /// Blocks until the first job is accepted (false if it never was).
  bool wait_first_accept() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return first_accepted_ || finished_; });
    return first_accepted_;
  }
  /// Lets the running job finish, submits no more, and joins.
  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  std::vector<JobRecord> jobs() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return jobs_;
  }

 private:
  void drive(std::uint16_t port) {
    net::ClientOptions options;
    options.port = port;
    net::Client client(options);
    std::string error;
    if (!client.connect(&error)) {
      std::fprintf(stderr, "perfbench: job connection failed: %s\n", error.c_str());
    }
    while (!stop_ && client.connected()) {
      std::error_code ignored;
      fs::remove(journal_, ignored);
      JobRecord job = run_one(client);
      const bool ok = job.ok;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        jobs_.push_back(std::move(job));
      }
      if (!ok) break;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    finished_ = true;
    cv_.notify_all();
  }

  JobRecord run_one(net::Client& client) {
    JobRecord job;
    std::string error;
    for (;;) {
      job.submit_ns = now_ns();
      if (!client.send(service::make_submit_campaign(request_), &error)) break;
      const auto reply = client.recv(&error, 60000);
      if (!reply.has_value()) break;
      if (const auto busy = service::parse_busy(*reply)) {
        ++job.busy;
        std::this_thread::sleep_for(std::chrono::milliseconds(busy->retry_after_ms));
        continue;
      }
      if (!service::parse_campaign_accepted(*reply).has_value()) {
        error = "submission not accepted";
        break;
      }
      job.accepted_ns = now_ns();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        first_accepted_ = true;
      }
      cv_.notify_all();
      for (;;) {
        const auto frame = client.recv(&error, 120000);
        if (!frame.has_value()) break;
        if (service::parse_campaign_progress(*frame).has_value()) {
          if (job.first_progress_ns == 0) job.first_progress_ns = now_ns();
          continue;
        }
        if (const auto done = service::parse_campaign_done(*frame)) {
          job.done_ns = now_ns();
          job.ok = done->ok;
          job.executed = done->executed;
          job.skipped = done->skipped;
          error = done->error;
        }
        break;
      }
      break;
    }
    job.error = error;
    return job;
  }

  service::SubmitCampaignReq request_;
  fs::path journal_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<JobRecord> jobs_;  // guarded by mutex_
  bool first_accepted_ = false;  // guarded by mutex_
  bool finished_ = false;        // guarded by mutex_
  std::thread thread_;           // declared last: uses everything above
};

}  // namespace

Result run_query_during_campaign(const Options& options) {
  Result result;
  const Placement placement = place_planes(true);
  double setup_s = 0.0;
  std::unique_ptr<Served> served = set_up(options, setup_s, placement);
  const std::uint16_t port = served->server->port();
  Trace trace(options.trace);
  auto& m = result.metrics;

  // A traced run first times the same job on the library path with no
  // query load, on the campaign plane's CPUs, so the service's share of
  // job_boundary_s can be separated.  Best of two.
  double library_s = 0.0;
  if (options.trace) {
    std::vector<double> seconds;
    std::thread([&] {
      if (!placement.campaign.empty()) pin_to(placement.campaign);
      for (int i = 0; i < 2; ++i) {
        service::BoundaryStore scratch;
        const auto begin = Clock::now();
        Trace::Span span(trace, "campaign.library_job");
        build_and_publish(served->kernels.front(), served->dir / "lib", 2,
                          util::default_pool(), scratch, options.seed);
        seconds.push_back(seconds_since(begin));
      }
    }).join();
    library_s = *std::min_element(seconds.begin(), seconds.end());
  }

  JobSubmitter submitter(port, served->dir / "store", options.seed);
  if (!placement.load.empty()) pin_to(placement.load);
  const std::vector<Query> queries = make_queries(options.seed, served->keys);
  LoadGenerator generator(port, queries);
  result.check(submitter.wait_first_accept(), "no campaign job was accepted");
  const std::int64_t window_begin = now_ns();
  Stream stream;
  Stream traced;
  if (options.trace) {
    stream = generator.run(kFixedRate, options.seconds / 2, kCheckEvery);
    Trace::Span span(trace, "net.stream");
    traced = generator.run(kFixedRate, options.seconds / 2, kCheckEvery);
  } else {
    stream = generator.run(kFixedRate, options.seconds, kCheckEvery);
  }
  const std::int64_t window_end = now_ns();
  submitter.stop();
  const std::vector<JobRecord> jobs = submitter.jobs();

  check_replies(result, stream, queries, served->svc->store());
  result.attempted += stream.sent + traced.sent + jobs.size();
  result.failed += stream.failures() + traced.failures();
  for (const JobRecord& job : jobs) {  // submissions refused with Busy
    result.attempted += job.busy;
    result.failed += job.busy;
  }
  std::vector<double> job_s, queue_wait_ms;
  for (const JobRecord& job : jobs) {
    if (!job.ok || job.executed != kPaperBatch || job.skipped != 0) {
      ++result.failed;
      std::fprintf(stderr, "perfbench: campaign job failed: %s\n", job.error.c_str());
      continue;
    }
    const double seconds = static_cast<double>(job.done_ns - job.submit_ns) * 1e-9;
    job_s.push_back(seconds);
    queue_wait_ms.push_back(static_cast<double>(job.first_progress_ns - job.submit_ns) * 1e-6);
    const int parent = trace.add("service.job", job.submit_ns, job.done_ns);
    trace.add("service.jobs.queue_wait", job.submit_ns, job.first_progress_ns, parent);
  }

  // The job plane must have been busy for the whole measured window: a job
  // accepted before it began, one still running when it ended, and between
  // jobs only the client's turnaround from one CampaignDone to the next
  // submission.
  std::int64_t idle_ns = 0;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    const std::int64_t from = std::max(jobs[i - 1].done_ns, window_begin);
    const std::int64_t to = std::min(jobs[i].submit_ns, window_end);
    if (to > from) idle_ns += to - from;
  }
  const double idle_frac =
      static_cast<double>(idle_ns) / static_cast<double>(window_end - window_begin);
  result.check(!jobs.empty() && jobs.front().accepted_ns <= window_begin &&
                   jobs.back().done_ns >= window_end,
               "no campaign job was in flight for the whole measured window");
  result.check(idle_frac < 0.01, "the job plane sat idle for " +
                                     std::to_string(100 * idle_frac) +
                                     "% of the measured window");

  // The daemon path must publish the same boundary the library path built.
  const auto entry = served->svc->store().find(served->keys.front().first);
  result.check(entry != nullptr &&
                   boundary::serialize(entry->boundary, entry->config_key) ==
                       served->artifacts.front(),
               "the job's published cg boundary differs from the library's");
  result.check(read_file(served->dir / "store" / (served->keys.front().first + ".boundary")) ==
                   served->artifacts.front(),
               "the job's cg artifact differs from the library's");

  std::printf("query_during_campaign: %zu cg jobs (%llu experiments, 2 pool "
              "workers) back to back under the query stream\n",
              jobs.size(), static_cast<unsigned long long>(kPaperBatch));
  report_stream("stream", stream);
  if (options.trace) report_stream("traced", traced);
  report("job_boundary_s", median(job_s), "s", std::to_string(job_s.size()) + " jobs");
  report("query_p50_us", stream.quantile_us(0.5), "us",
         std::to_string(stream.sent) + " samples");
  report("query_p99_us", stream.quantile_us(0.99), "us");
  report("job_plane_idle_frac", idle_frac, "");
  m["setup_s"] = setup_s;
  m["latency_p50_ms"] = stream.quantile_us(0.5) / 1e3;
  m["throughput_per_s"] = job_s.empty() ? 0.0 : static_cast<double>(kPaperBatch) / median(job_s);
  if (!options.trace) return result;

  check_replies(result, traced, queries, served->svc->store());
  m["trace.overhead_frac"] =
      traced.quantile_us(0.5) / stream.quantile_us(0.5) - 1.0;
  m["service.jobs.queue_wait_ms"] = median(queue_wait_ms);
  m["service.jobs.overhead_s"] = median(job_s) - library_s;
  // Self time per traced stream (net) and per job (service).
  auto self = trace.layer_self_seconds();
  m["net.self_s"] = self["net"];
  m["service.self_s"] = job_s.empty() ? 0.0 : self["service"] / static_cast<double>(job_s.size());
  add_stream_layers(result, stream);
  probe_query_path(result, *served, queries, port, trace);
  trace.write_json(options.trace_dir /
                   ("query_during_campaign-" + std::to_string(options.seed) + ".json"));
  return result;
}

}  // namespace ftb::perfbench
