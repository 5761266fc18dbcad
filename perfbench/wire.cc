// The wire workload: QUERY frames over loopback into an in-process NetDaemon
// in front of a 100k-page selective server, while a publisher thread runs
// the refresh cycle every 250 ms.
//
// The load is an open loop: one generator thread sends on a seeded Poisson
// schedule whether or not earlier replies are back, and times each request
// from its due time. It waits on a non-blocking socket built on
// net/protocol.h rather than blocking in NetClient, so a late reply does not
// delay the next send; NetClient's blocking round trip is measured
// separately in the traced run. The generator and the publisher each get a
// vCPU of their own; the daemon's event loop and queue consumer share the
// remaining vCPUs.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy/policy_factory.h"
#include "harness.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/protocol.h"

namespace perfbench {

using namespace randrank;

namespace {

constexpr size_t kWirePages = 100000;
constexpr double kQueriesPerSecond = 5000.0;
constexpr uint64_t kPublishEveryNs = 250'000'000;
/// How long the generator waits for outstanding replies after the last send
/// before counting them as failed.
constexpr uint64_t kReplyTimeoutNs = 5'000'000'000;
/// The generator sleeps until this close to a send, then spins: waking from
/// a sleep is too coarse to send on time.
constexpr uint64_t kSpinNs = 30'000;

/// One non-blocking client connection speaking the daemon protocol, polled
/// by the generator thread.
class WireConn {
 public:
  struct Reply {
    uint64_t id = 0;
    bool ok = false;  // a QUERY_REPLY (not an ERROR frame)
    std::vector<uint32_t> pages;
  };

  WireConn() = default;
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;
  ~WireConn() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Close();
      return false;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sleeps until the socket is readable or `timeout_ns` passes.
  void Wait(uint64_t timeout_ns) {
    pollfd p{fd_, POLLIN, 0};
    const timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                      static_cast<long>(timeout_ns % 1000000000)};
    ::ppoll(&p, 1, &ts, nullptr);
  }

  bool Send(uint64_t id, uint64_t user) {
    wbuf_.clear();
    net::AppendQuery({id, user, static_cast<uint32_t>(kTopM)}, &wbuf_);
    size_t off = 0;
    while (off < wbuf_.size()) {
      const ssize_t n = ::send(fd_, wbuf_.data() + off, wbuf_.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  }

  /// Reads what the socket has and appends every complete reply frame.
  /// Returns false on EOF, an I/O error or a malformed frame.
  bool Poll(std::vector<Reply>* out) {
    uint8_t chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    rbuf_.insert(rbuf_.end(), chunk, chunk + n);
    size_t pos = 0;
    for (;;) {
      net::FrameHeader h;
      const net::DecodeStatus st =
          net::DecodeHeader(rbuf_.data() + pos, rbuf_.size() - pos, &h);
      if (st == net::DecodeStatus::kNeedMore) break;
      if (st != net::DecodeStatus::kOk) return false;
      if (rbuf_.size() - pos < net::kHeaderSize + h.payload_len) break;
      const uint8_t* payload = rbuf_.data() + pos + net::kHeaderSize;
      Reply r;
      if (h.type == net::FrameType::kQueryReply) {
        net::QueryReplyFrame frame;
        if (!net::DecodeQueryReply(payload, h.payload_len, &frame)) return false;
        r.id = frame.request_id;
        r.ok = true;
        r.pages = std::move(frame.pages);
      } else if (h.type == net::FrameType::kError) {
        net::ErrorFrame frame;
        if (!net::DecodeError(payload, h.payload_len, &frame)) return false;
        r.id = frame.request_id;
      } else {
        return false;
      }
      out->push_back(std::move(r));
      pos += net::kHeaderSize + h.payload_len;
    }
    rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<ptrdiff_t>(pos));
    return true;
  }

 private:
  int fd_ = -1;
  std::vector<uint8_t> wbuf_;
  std::vector<uint8_t> rbuf_;
};

struct WireStack {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  std::unique_ptr<ShardedRankServer> server;
  std::unique_ptr<net::NetDaemon> daemon;
  WireConn conn;
  std::vector<int> daemon_tids;  // event loop and queue consumer
  bool connected = false;

  ~WireStack() {
    conn.Close();
    if (daemon) daemon->Drain();
  }
};

/// Builds server, first publish, daemon and connection; returns the time the
/// program's own set-up calls took.
double BuildStack(const ServingPageState& state, uint64_t server_seed,
                  bool traced, WireStack* s) {
  if (traced) {
    s->registry = std::make_unique<obs::MetricsRegistry>();
    obs::TraceOptions topts;
    topts.sample_every = 1024;
    s->trace = std::make_unique<obs::TraceLog>(topts);
  }
  auto policy = MakePolicyFromLabel("selective(r=0.10,k=2)");
  ServeOptions sopts;
  sopts.shards = kShards;
  sopts.seed = server_seed;
  sopts.metrics = s->registry.get();
  sopts.trace = s->trace.get();
  net::NetDaemonOptions nopts;
  nopts.metrics = s->registry.get();
  nopts.trace = s->trace.get();

  const uint64_t t0 = NowNs();
  s->server = std::make_unique<ShardedRankServer>(policy, state.n(), sopts);
  s->server->Update(state.popularity, state.zero_awareness, state.birth_step);
  s->daemon = std::make_unique<net::NetDaemon>(*s->server, nopts);
  const std::vector<int> before = ThreadIds();
  s->daemon->Start();
  const double start_s = static_cast<double>(NowNs() - t0) * 1e-9;
  const std::vector<int> after = ThreadIds();
  const uint64_t t1 = NowNs();
  s->connected = s->conn.Connect(s->daemon->port());
  const double total = start_s + static_cast<double>(NowNs() - t1) * 1e-9;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(s->daemon_tids));
  return total;
}

struct PublisherOut {
  std::atomic<int> tid{0};
  SpeedProbe speed;  // sampled after each measured publish
  std::vector<RefreshTimes> refresh;
  std::vector<double> churn_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  SpanLog spans;
};

struct WireRun {
  double setup_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answered = 0;  // in the measured window
  QpcMean qpc;
  std::vector<double> latency_us;   // due -> reply
  std::vector<double> lateness_us;  // due -> send
  double query_cpu_ns = 0.0;
  PublisherOut pub;
  std::map<std::string, double> family_ns;
  // Program-side numbers over the measured window (traced runs).
  obs::HistogramSnapshot request_ns, wait_ns, serve_ns;
  double batch_size = 0.0;
  double bytes_per_query = 0.0;
  // NetClient's blocking round trip and the daemon's request time over the
  // same queries (traced runs).
  std::vector<double> client_rtt_us;
  obs::HistogramSnapshot client_request_ns;
  ServingPageState final_state;
};

struct WireOptions {
  double seconds = 0.0;
  double warmup = 0.0;
  bool publisher = true;
  /// Measure every family's serving cost on the publisher's vCPU while it
  /// waits for its next publish (cpu_ns_per_query.<family>).
  bool family_sweep = false;
  bool traced = false;
  size_t setup_reps = 1;
  std::string stream = "main";
};

obs::HistogramSnapshot Hist(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  const auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? obs::HistogramSnapshot{} : it->second;
}

uint64_t Count(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

void PinDaemon(const WireStack& stack, const std::vector<int>& cpus) {
  // The event loop and the consumer may run on any vCPU but the
  // generator's (cpus[0]) and the publisher's (cpus[3]).
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = 1; i + 1 < cpus.size(); ++i) CPU_SET(cpus[i], &set);
  for (const int tid : stack.daemon_tids) {
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

/// NetClient round trips, one outstanding, on the Poisson schedule: the
/// client-side cost a blocking caller sees.
void ProbeNetClient(WireStack& stack, const Args& args, WireRun* out) {
  constexpr size_t kQueries = 3000;
  net::NetClient client;
  ++out->attempted;
  if (!client.Connect("127.0.0.1", stack.daemon->port())) {
    ++out->failed;
    return;
  }
  const obs::MetricsSnapshot snap0 = stack.registry->Snapshot();
  Rng arrivals(DeriveSeed(args.seed, "probe/netclient/arrivals"));
  uint64_t due = NowNs();
  for (size_t i = 0; i < kQueries; ++i) {
    due += static_cast<uint64_t>(arrivals.NextExponential(kQueriesPerSecond) * 1e9);
    while (NowNs() < due) {
    }
    net::NetClient::QueryResult reply;
    const uint64_t t0 = NowNs();
    const net::NetClient::Status st = client.Query(kTopM, i + 1, &reply);
    const uint64_t t1 = NowNs();
    ++out->attempted;
    if (st != net::NetClient::Status::kOk ||
        !ValidList(reply.pages, stack.server->n())) {
      ++out->failed;
      continue;
    }
    out->client_rtt_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  client.Close();
  out->client_request_ns = Hist(stack.registry->Snapshot(), "net/request_ns")
                               .Delta(Hist(snap0, "net/request_ns"));
}

void RunWireLoad(const Args& args, const ServingPageState& corpus,
                const WireOptions& opt, WireRun* out) {
  const uint64_t server_seed =
      DeriveSeed(args.seed, opt.stream + "/wire/server");
  auto stack = std::make_unique<WireStack>();
  std::vector<double> reps;
  for (size_t rep = 0; rep < std::max<size_t>(1, opt.setup_reps); ++rep) {
    stack = std::make_unique<WireStack>();
    reps.push_back(BuildStack(corpus, server_seed, opt.traced, stack.get()));
  }
  out->setup_s = Median(reps);
  ++out->attempted;
  if (!stack->connected) {
    ++out->failed;
    return;
  }
  ShardedRankServer& server = *stack->server;
  if (stack->trace) stack->trace->Drain();  // set-up publishes are not measured

  const std::vector<int>& cpus = AllowedCpus();
  const bool pin = cpus.size() >= 4 && stack->daemon_tids.size() == 2;
  if (pin) {
    PinThread(0, cpus[0]);
    PinDaemon(*stack, cpus);
  }

  ServingPageState state = corpus;
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<int> others = stack->daemon_tids;
  others.push_back(CurrentTid());
  std::vector<double> last_pop = state.popularity;
  std::vector<uint8_t> last_zero = state.zero_awareness;
  std::unique_ptr<FamilySweep> sweep;
  if (opt.family_sweep) sweep = std::make_unique<FamilySweep>(corpus, args.seed);
  std::thread publisher;
  if (opt.publisher) {
    publisher = std::thread([&] {
      PublisherOut& p = out->pub;
      p.tid = CurrentTid();
      if (pin) PinThread(0, cpus[3]);
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const PageLifecycle life(Community(state.n()), kEpochsPerDay);
      Rng churn_rng(DeriveSeed(args.seed, "churn"));
      Rng fold_rng(DeriveSeed(args.seed, opt.stream + "/wire/fold"));
      uint64_t next = NowNs();
      int64_t epoch = 0;
      while (!stop.load()) {
        next += kPublishEveryNs;
        while (!stop.load() && NowNs() < next) {
          const uint64_t left = next - std::min(next, NowNs());
          timespec ts{0, static_cast<long>(std::min<uint64_t>(left, 10'000'000))};
          ::nanosleep(&ts, nullptr);
        }
        if (stop.load()) break;
        const bool measured = measuring.load();
        const uint64_t d0 = NowNs();
        const std::vector<uint32_t> deaths = life.DrawDeaths(churn_rng);
        const double draw_ms = static_cast<double>(NowNs() - d0) * 1e-6;
        RefreshHooks hooks;
        hooks.other_tids = &others;
        if (opt.traced) {
          hooks.spans = &p.spans;
          hooks.trace = stack->trace.get();
          hooks.last_pop = &last_pop;
          hooks.last_zero = &last_zero;
        }
        const RefreshTimes t =
            Refresh(server, &state, fold_rng, deaths, ++epoch, hooks);
        ++p.attempted;
        if (!t.ok) ++p.failed;
        if (measured) {
          p.refresh.push_back(t);
          p.churn_ms.push_back(draw_ms + t.churn_ms);
          p.speed.Sample();
        }
        // A sweep round (4 chunks of 5 ms CPU) when it fits before the
        // next publish; outside the measured window it only warms caches.
        if (sweep && NowNs() + 50'000'000 < next + kPublishEveryNs) {
          sweep->Round(5'000'000, measured, &p.speed);
        }
      }
    });
    while (out->pub.tid.load() == 0) std::this_thread::yield();
  }

  // The generator plays the click log in-process: the protocol has no click
  // frame, so clicks reach the server through its RecordVisit.
  const ClickModel clicks(corpus.quality);
  ShardedRankServer::Context click_ctx = server.CreateContext();
  Rng arrivals(DeriveSeed(args.seed, opt.stream + "/wire/arrivals"));
  Rng click_rng(DeriveSeed(args.seed, opt.stream + "/wire/clicks"));
  SpanLog spans;
  WireConn& conn = stack->conn;

  struct Sent {
    uint64_t due = 0;
    uint64_t send = 0;
    int span = 0;
    bool measured = false;
  };
  std::vector<Sent> sent;  // by request id - 1
  sent.reserve(static_cast<size_t>((opt.warmup + opt.seconds) *
                                   kQueriesPerSecond * 1.2) + 16);
  std::vector<WireConn::Reply> replies;
  const uint64_t t0 = NowNs();
  const auto warm_end = t0 + static_cast<uint64_t>(opt.warmup * 1e9);
  const auto end = warm_end + static_cast<uint64_t>(opt.seconds * 1e9);
  double next_due = static_cast<double>(t0) +
                    arrivals.NextExponential(kQueriesPerSecond) * 1e9;
  bool window = false;
  bool io_ok = true;
  uint64_t outstanding = 0;
  uint64_t proc0 = 0, gen0 = 0, pub0 = 0;
  obs::MetricsSnapshot snap0;
  net::NetDaemonStats stats0;
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  for (;;) {
    const uint64_t now = NowNs();
    const bool sending = next_due < static_cast<double>(end) && io_ok;
    if (!sending && (outstanding == 0 || now > end + kReplyTimeoutNs)) break;
    const double wake = sending ? next_due : static_cast<double>(now) + 1e6;
    if (wake > static_cast<double>(now + kSpinNs)) {
      conn.Wait(static_cast<uint64_t>(wake) - now - kSpinNs);
    }
    if (sending && static_cast<double>(NowNs()) >= next_due) {
      const auto due = static_cast<uint64_t>(next_due);
      next_due += arrivals.NextExponential(kQueriesPerSecond) * 1e9;
      const bool measured = due >= warm_end;
      if (measured && !window) {
        window = true;
        measuring = true;
        if (stack->registry) snap0 = stack->registry->Snapshot();
        stats0 = stack->daemon->stats();
        proc0 = ProcessCpuNs();
        gen0 = ThreadCpuNs();
        pub0 = opt.publisher ? TidCpuNs(out->pub.tid) : 0;
      }
      const uint64_t id = sent.size() + 1;
      Sent s{due, NowNs(), 0, measured};
      if (opt.traced) s.span = spans.Begin("wire.query", SpanLog::kNoParent, id);
      sent.push_back(s);
      ++out->attempted;
      ++outstanding;
      io_ok = conn.Send(id, id);
    }
    replies.clear();
    io_ok = conn.Poll(&replies) && io_ok;
    if (replies.empty()) continue;
    const uint64_t recv = NowNs();
    for (const WireConn::Reply& r : replies) {
      if (r.id == 0 || r.id > sent.size()) {
        ++out->failed;  // an answer to nothing this client sent
        continue;
      }
      const Sent& s = sent[r.id - 1];
      --outstanding;
      if (opt.traced) spans.End(s.span);
      // A reply is checked by its request id and its list alone: the epoch
      // the daemon stamps is read after serving, so it is not evidence of
      // the epoch that served the list.
      const bool ok = r.ok && ValidList(r.pages, state.n());
      if (!ok) ++out->failed;
      if (s.measured) {
        // A failed query counts as exceeding every latency percentile.
        out->latency_us.push_back(
            ok ? static_cast<double>(recv - s.due) * 1e-3 : 1e12);
        out->lateness_us.push_back(static_cast<double>(s.send - s.due) * 1e-3);
        if (ok) ++out->answered;
      }
      if (!ok) continue;
      out->qpc.Add(clicks.Qpc(r.pages));
      server.RecordVisit(click_ctx,
                         r.pages[clicks.SampleRank(click_rng, r.pages.size())]);
    }
  }
  // Replies that never came (connection lost, or past the timeout).
  out->failed += outstanding;
  for (uint64_t i = 0; i < outstanding; ++i) out->latency_us.push_back(1e12);
  if (window) {
    const double proc = static_cast<double>(ProcessCpuNs() - proc0);
    const double gen = static_cast<double>(ThreadCpuNs() - gen0);
    const double pub =
        opt.publisher ? static_cast<double>(TidCpuNs(out->pub.tid) - pub0)
                      : 0.0;
    out->query_cpu_ns = proc - gen - pub;
  }
  measuring = false;
  stop = true;
  if (publisher.joinable()) publisher.join();
  if (sweep) out->family_ns = sweep->NsPerQuery();
  server.FlushFeedback(click_ctx);
  const net::NetDaemonStats stats1 = stack->daemon->stats();
  if (stack->registry) {
    const obs::MetricsSnapshot snap1 = stack->registry->Snapshot();
    out->request_ns =
        Hist(snap1, "net/request_ns").Delta(Hist(snap0, "net/request_ns"));
    out->wait_ns =
        Hist(snap1, "queue/wait_ns").Delta(Hist(snap0, "queue/wait_ns"));
    for (const auto& [name, h] : snap1.histograms) {
      if (name.rfind("serve/latency_ns/", 0) == 0) {
        out->serve_ns.Merge(h.Delta(Hist(snap0, name)));
      }
    }
    const double q = static_cast<double>(Count(snap1, "queue/queries_total") -
                                         Count(snap0, "queue/queries_total"));
    const double b = static_cast<double>(Count(snap1, "queue/batches_total") -
                                         Count(snap0, "queue/batches_total"));
    out->batch_size = b > 0 ? q / b : 0.0;
    ProbeNetClient(*stack, args, out);
  }
  const double queries = static_cast<double>(stats1.queries - stats0.queries);
  out->bytes_per_query =
      queries > 0 ? static_cast<double>(stats1.bytes_read - stats0.bytes_read +
                                        stats1.bytes_written -
                                        stats0.bytes_written) /
                        queries
                  : 0.0;
  out->attempted += out->pub.attempted;
  out->failed += out->pub.failed;
  stack->conn.Close();
  ++out->attempted;
  if (!stack->daemon->Drain()) ++out->failed;
  if (opt.traced) {
    WriteSpans(args, spans, "generator", /*truncate=*/opt.publisher);
    WriteSpans(args, out->pub.spans, "publisher", /*truncate=*/false);
  }
  out->final_state = std::move(state);
}

/// CPU of the query path per answered query: process CPU over the measured
/// window less the generator's and the publisher's threads, at reference
/// speed (the speed probe runs on the publisher's vCPU).
double QueryCpuUs(const WireRun& r) {
  return ToRef(r.query_cpu_ns * 1e-3 /
                   static_cast<double>(std::max<uint64_t>(1, r.answered)),
               r.pub.speed.speed());
}

void ReportSocketLayers(const WireRun& r, Report* report) {
  const double rtt_p50 = Quantile(r.client_rtt_us, 0.5);
  report->Set("net.client.rtt_us.p50", rtt_p50, "us");
  report->Set("net.client.rtt_us.p99", Quantile(r.client_rtt_us, 0.99), "us");
  report->Set("net.client.rtt_us.n", static_cast<double>(r.client_rtt_us.size()),
              "count");
  report->Set("net.daemon.request_us.p50", r.request_ns.Quantile(0.5) * 1e-3,
              "us");
  report->Set("net.daemon.request_us.p90", r.request_ns.Quantile(0.9) * 1e-3,
              "us");
  report->Set("net.outside_us.p50",
              rtt_p50 - r.client_request_ns.Quantile(0.5) * 1e-3, "us");
  report->Set("net.daemon.bytes_per_query", r.bytes_per_query, "bytes");
  report->Set("serve.queue.wait_us.p50", r.wait_ns.Quantile(0.5) * 1e-3, "us");
  report->Set("serve.queue.wait_us.p90", r.wait_ns.Quantile(0.9) * 1e-3, "us");
  report->Set("serve.queue.batch_size", r.batch_size, "queries");
  report->Set("bench.generator_lateness_us.p50", Quantile(r.lateness_us, 0.5),
              "us");
  report->Set("bench.generator_lateness_us.p99", Quantile(r.lateness_us, 0.99),
              "us");
}

}  // namespace

void RunSocketProbe(const Args& args, const ServingPageState& state,
                    Report* report) {
  WireOptions opt;
  opt.seconds = 2.0;
  opt.warmup = 0.25;
  opt.publisher = false;
  opt.traced = true;
  opt.stream = "probe";
  WireRun r;
  RunWireLoad(args, state, opt, &r);
  report->Attempt(r.attempted);
  report->Fail(r.failed);
  ReportSocketLayers(r, report);
}

void RunWire(const Args& args, Report* report) {
  const ServingPageState corpus =
      MakeWarmCorpus(Community(kWirePages), args.seed);
  if (!args.trace) {
    WireOptions opt;
    opt.seconds = args.seconds;
    opt.warmup = 1.0;
    opt.setup_reps = 15;
    opt.family_sweep = true;
    WireRun r;
    RunWireLoad(args, corpus, opt, &r);
    report->Attempt(r.attempted);
    report->Fail(r.failed);
    if (r.final_state.n() == 0) return;  // never connected
    report->Set("setup_s", r.setup_s, "s");
    report->Set("ok_ratio",
                1.0 - static_cast<double>(r.failed) /
                          static_cast<double>(std::max<uint64_t>(1, r.attempted)),
                "ratio");
    report->Set("qpc", r.qpc.value(), "ratio");
    report->Set("cpu_us_per_query", QueryCpuUs(r), "ref_us");
    ReportRefreshCpu(r.pub.refresh, r.pub.speed.speed(), report);
    // The daemon serves one family; every family's serving cost is measured
    // on this corpus, on the publisher's vCPU between publishes.
    for (const auto& [family, ns] : r.family_ns) {
      report->Set("cpu_ns_per_query." + family,
                  ToRef(ns, r.pub.speed.speed()), "ref_ns");
    }
    report->Set("rss_mb", PeakRssMb(), "MiB");
    return;
  }
  WireOptions opt;
  opt.seconds = args.seconds / 2;
  opt.warmup = 0.5;
  WireRun plain;
  RunWireLoad(args, corpus, opt, &plain);
  opt.traced = true;
  WireRun traced;
  RunWireLoad(args, corpus, opt, &traced);
  report->Attempt(plain.attempted + traced.attempted);
  report->Fail(plain.failed + traced.failed);
  report->Set("obs.trace_overhead", QueryCpuUs(traced) / QueryCpuUs(plain),
              "ratio");
  report->Set("host.speed_probe_ns", plain.pub.speed.speed(), "ns");
  report->Set("qpc.main_seed", plain.qpc.value(), "ratio");
  // Wall-clock round trip from each request's due time; a failed query
  // counts as exceeding every percentile.
  report->Set("latency_p50_us", Quantile(plain.latency_us, 0.5), "us");
  report->Set("latency_p90_us", Quantile(plain.latency_us, 0.9), "us");
  ReportRefreshWall(plain.pub.refresh, report);
  ReportSocketLayers(traced, report);
  report->Set("serve.server.serve_ns", traced.serve_ns.Quantile(0.5), "ns");
  ReportRefreshLayers(traced.pub.refresh, traced.pub.churn_ms, traced.pub.spans,
                      report);
  // qpc under a second seed: the same wire run, serving, arrival and click
  // streams drawn from another seed, over the same corpus.
  WireOptions alt = opt;
  alt.traced = false;
  alt.stream = "alt";
  alt.seconds = std::min(5.0, args.seconds / 4);
  WireRun alt_run;
  RunWireLoad(args, corpus, alt, &alt_run);
  report->Attempt(alt_run.attempted);
  report->Fail(alt_run.failed);
  report->Set("qpc.alt_seed", alt_run.qpc.value(), "ratio");
  RunLayerProbes(args, traced.final_state, /*socket_probe=*/false, report);
}

}  // namespace perfbench
