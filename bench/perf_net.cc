// Network serving benchmark: what does the socket boundary cost over the
// same serving work in-process? The daemon's event loop serves each QUERY
// frame itself on one serving Context; the in-process point runs that same
// per-query serve without sockets, so `network_tax` isolates the wire's
// contribution (framing, loopback TCP, the epoll event loop) to latency and
// throughput.
//
// Points (JSONL, same format as perf_serve):
//   net/inprocess        — closed-loop ServeTopM on one serving Context, no
//                          sockets: the in-process baseline.
//   net/socket:conns:N   — N closed-loop client threads (one connection
//                          each) against the daemon over loopback.
//                          `network_tax` = inprocess QPS / socket QPS.
//   net/socket:pipelined — one connection keeping a window of 8 queries in
//                          flight: what the wire costs when round-trip
//                          latency is amortized away.
//
// Run: ./build/bench/perf_net [--smoke]

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/community.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "net/client.h"
#include "net/daemon.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace randrank;
using Clock = std::chrono::steady_clock;

constexpr size_t kTopM = 10;

double Seconds(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::TakeSmokeFlag(&argc, argv);

  bench::PrintBanner(
      "perf_net",
      "socket serving daemon vs the same per-query serve in-process",
      "the wire adds per-query framing + loopback TCP + event-loop "
      "scheduling; closed-loop network_tax is dominated by round-trip "
      "latency and should shrink under pipelining");

  const size_t kPages = smoke ? 5000 : 50000;
  const size_t kQueries = smoke ? 20000 : 100000;

  CommunityParams community = CommunityParams::Default();
  community.n = kPages;
  community.u = 2000;
  community.m = 200;

  Rng rng(0x2e7ULL);
  ServingPageState state = MakeServingPageState(community, rng);
  ServeOptions sopts;
  sopts.shards = 4;
  sopts.seed = 11;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Recommended(2)), community.n,
      sopts);
  server.Update(state.popularity, state.zero_awareness, state.birth_step);

  bench::JsonlSink sink;
  Table table({"point", "conns", "QPS", "p50 (us)", "p99 (us)", "net tax"});

  // In-process baseline: what the daemon's event loop does per query —
  // ServeTopM on one serving Context — with no sockets. Closed loop, latency
  // per query.
  double qps_inprocess = 0.0;
  {
    ShardedRankServer::Context ctx = server.CreateContext();
    std::vector<uint32_t> results;
    std::vector<double> lat_us;
    lat_us.reserve(kQueries);
    const Clock::time_point t0 = Clock::now();
    for (size_t q = 0; q < kQueries; ++q) {
      const Clock::time_point s = Clock::now();
      server.ServeTopM(ctx, kTopM, &results);
      lat_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - s).count());
    }
    const double seconds = Seconds(t0);
    qps_inprocess =
        seconds > 0.0 ? static_cast<double>(kQueries) / seconds : 0.0;
    const std::map<std::string, double> fields = {
        {"qps", qps_inprocess},
        {"p50_us", Percentile(lat_us, 50.0)},
        {"p99_us", Percentile(lat_us, 99.0)},
        {"pages", static_cast<double>(kPages)}};
    bench::RegisterCounterBenchmark("net/inprocess", fields);
    sink.Emit(std::cout, "net/inprocess", fields);
    table.Row().Cell("inprocess").Cell(static_cast<long long>(0))
        .Cell(qps_inprocess, 0).Cell(fields.at("p50_us"), 1)
        .Cell(fields.at("p99_us"), 1).Cell("baseline");
  }

  // The daemon the socket points talk to (ephemeral loopback port).
  net::NetDaemonOptions nopts;
  net::NetDaemon daemon(server, nopts);
  daemon.Start();

  // Closed-loop socket points: N client threads, one connection each, one
  // outstanding query per connection — per-query latency is a full wire
  // round trip through the event loop.
  for (const size_t conns : {size_t{1}, size_t{2}}) {
    const size_t per_conn = kQueries / conns;
    std::vector<std::vector<double>> lat_us(conns);
    std::vector<std::thread> clients;
    std::atomic<uint64_t> failures{0};
    const Clock::time_point t0 = Clock::now();
    for (size_t c = 0; c < conns; ++c) {
      clients.emplace_back([&, c] {
        net::NetClient client;
        if (!client.Connect("127.0.0.1", daemon.port(), 10)) {
          failures.fetch_add(per_conn);
          return;
        }
        lat_us[c].reserve(per_conn);
        net::NetClient::QueryResult result;
        for (size_t q = 0; q < per_conn; ++q) {
          const Clock::time_point s = Clock::now();
          if (client.Query(kTopM, c * per_conn + q, &result) !=
              net::NetClient::Status::kOk) {
            failures.fetch_add(1);
            return;
          }
          lat_us[c].push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - s)
                  .count());
        }
      });
    }
    for (auto& t : clients) t.join();
    const double seconds = Seconds(t0);
    if (failures.load() != 0) {
      std::cerr << "perf_net: " << failures.load()
                << " socket queries failed\n";
      return 1;
    }
    std::vector<double> merged;
    merged.reserve(kQueries);
    for (const auto& v : lat_us) merged.insert(merged.end(), v.begin(),
                                               v.end());
    const double qps =
        seconds > 0.0 ? static_cast<double>(merged.size()) / seconds : 0.0;
    const double tax = qps > 0.0 ? qps_inprocess / qps : 0.0;
    const std::map<std::string, double> fields = {
        {"conns", static_cast<double>(conns)},
        {"qps", qps},
        {"p50_us", Percentile(merged, 50.0)},
        {"p99_us", Percentile(merged, 99.0)},
        {"inprocess_qps", qps_inprocess},
        {"network_tax", tax},
        {"pages", static_cast<double>(kPages)}};
    const std::string name = "net/socket:conns:" + std::to_string(conns);
    bench::RegisterCounterBenchmark(name, fields);
    sink.Emit(std::cout, name, fields);
    table.Row()
        .Cell("socket:conns:" + std::to_string(conns))
        .Cell(static_cast<long long>(conns))
        .Cell(qps, 0)
        .Cell(fields.at("p50_us"), 1)
        .Cell(fields.at("p99_us"), 1)
        .Cell("x" + FormatFixed(tax, 2));
  }

  // Pipelined point: one connection, window of 8 in flight — amortizes the
  // round trip, so the residual tax is framing + syscalls, not latency.
  {
    const size_t kWindow = 8;
    net::NetClient client;
    if (!client.Connect("127.0.0.1", daemon.port(), 10)) {
      std::cerr << "perf_net: pipelined connect failed\n";
      return 1;
    }
    size_t sent = 0;
    size_t received = 0;
    bool ok = true;
    const Clock::time_point t0 = Clock::now();
    while (received < kQueries && ok) {
      while (sent < kQueries && sent - received < kWindow) {
        ok = client.SendQuery(kTopM, sent, nullptr) && ok;
        ++sent;
      }
      ok = ok && client.ReadReply(nullptr, nullptr) ==
                     net::NetClient::Status::kOk;
      ++received;
    }
    const double seconds = Seconds(t0);
    if (!ok) {
      std::cerr << "perf_net: pipelined run failed\n";
      return 1;
    }
    const double qps =
        seconds > 0.0 ? static_cast<double>(received) / seconds : 0.0;
    const double tax = qps > 0.0 ? qps_inprocess / qps : 0.0;
    const std::map<std::string, double> fields = {
        {"conns", 1.0},
        {"window", static_cast<double>(kWindow)},
        {"qps", qps},
        {"inprocess_qps", qps_inprocess},
        {"network_tax", tax},
        {"pages", static_cast<double>(kPages)}};
    bench::RegisterCounterBenchmark("net/socket:pipelined", fields);
    sink.Emit(std::cout, "net/socket:pipelined", fields);
    table.Row()
        .Cell("socket:pipelined")
        .Cell(static_cast<long long>(1))
        .Cell(qps, 0)
        .Cell("")
        .Cell("")
        .Cell("x" + FormatFixed(tax, 2) + " (window 8)");
  }

  if (!daemon.Drain()) {
    std::cerr << "perf_net: daemon drain was forced\n";
    return 1;
  }
  return bench::FinishFigureChecked(argc, argv, table, sink);
}
