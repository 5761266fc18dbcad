// Chaos drill for the serving stack, self-checking: an adversarial (but
// fully deterministic, seeded) FaultPlan is armed in-process while client
// threads send windows of QUERY frames to an in-process NetDaemon with a
// per-query deadline, and a writer thread publishes epochs that keep
// failing. The daemon is the front end that serves real traffic, so the
// drill proves the robustness contract on that path:
//
//   * every reply is a correct top-m list for its query or an explicit
//     ERROR/DEADLINE_EXCEEDED; any other reply, a reply out of order, or a
//     read timeout is a violation — never a hang, never a silently wrong
//     answer;
//   * a stalled query sheds the queries read with it;
//   * the daemon's shed accounting matches what clients actually observed;
//   * failed publishes roll back: the server keeps serving the previous
//     epoch, counts the failures, and reports degraded();
//   * when the faults clear, one clean publish recovers everything, and the
//     daemon drains cleanly.
//
// Any violated invariant prints CHAOS VIOLATION and exits nonzero, so CI
// runs this binary as an acceptance gate (--fast keeps it under a second).
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j
//   ./build/examples/chaos_serve [--fast]

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

using namespace randrank;

namespace {

[[noreturn]] void Violation(const std::string& what) {
  std::cerr << "CHAOS VIOLATION: " << what << "\n";
  std::exit(1);
}

void Check(bool ok, const std::string& what) {
  if (!ok) Violation(what);
}

/// Sends one window of QUERY frames in a single write, so one read on the
/// daemon's side delivers them all, then reads every reply. Replies leave
/// the daemon in request order, each a top-m list or an explicit deadline
/// shed; anything else is a violation. Returns the number shed.
size_t RunWindow(net::NetClient& client, Rng& rng, uint64_t* next_id,
                 size_t window, size_t n) {
  std::vector<uint8_t> bytes;
  std::vector<uint32_t> ms;
  const uint64_t first_id = *next_id;
  for (size_t q = 0; q < window; ++q) {
    const auto m = static_cast<uint32_t>(1 + rng.NextIndex(20));
    ms.push_back(m);
    net::AppendQuery(net::QueryFrame{(*next_id)++, rng.NextIndex(1000), m},
                     &bytes);
  }
  Check(client.SendRaw(bytes), "sending a window of queries failed");

  size_t shed = 0;
  for (size_t q = 0; q < window; ++q) {
    const uint64_t id = first_id + q;
    net::NetClient::QueryResult result;
    uint64_t got = 0;
    const net::NetClient::Status status = client.ReadReply(&result, &got);
    if (status == net::NetClient::Status::kIoError) {
      Violation("no reply to query " + std::to_string(id) +
                " (read timeout or lost connection)");
    }
    const bool is_shed =
        status == net::NetClient::Status::kDeadlineExceeded;
    Check(status == net::NetClient::Status::kOk || is_shed,
          "query " + std::to_string(id) + " got error code " +
              std::to_string(static_cast<int>(client.last_error().code)) +
              ": " + client.last_error().message);
    Check(got == id, "reply to query " + std::to_string(got) +
                         " arrived where " + std::to_string(id) +
                         "'s was due");
    if (is_shed) {
      ++shed;  // explicit shed: allowed, counted by the caller
      continue;
    }
    const std::vector<uint32_t>& pages = result.pages;
    Check(pages.size() == ms[q], "served query returned " +
                                     std::to_string(pages.size()) +
                                     " slots, want " + std::to_string(ms[q]));
    const std::set<uint32_t> unique(pages.begin(), pages.end());
    Check(unique.size() == pages.size(), "served query returned duplicates");
    for (const uint32_t page : pages) {
      Check(page < n, "served query returned out-of-range page");
    }
  }
  return shed;
}

struct Corpus {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
};

Corpus MakeCorpus(size_t n, uint64_t seed) {
  Corpus c;
  Rng rng(seed);
  c.popularity.resize(n);
  c.zero.resize(n);
  c.birth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool is_zero = (i % 40) == 0;
    c.zero[i] = is_zero ? 1 : 0;
    c.popularity[i] = is_zero ? 0.0 : rng.NextDouble() * 0.4 + 1e-6;
    c.birth[i] = static_cast<int64_t>(i);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fast") == 0) fast = true;
  }

  const size_t n = fast ? 2000 : 8000;
  const int kProducers = 2;
  const int kWindows = fast ? 4 : 12;  // windows of pipelined queries
  const size_t kWindowSize = 32;       // queries per window (one write)
  const int kChaosUpdates = 12;        // publish attempts under fire

  const Corpus base = MakeCorpus(n, 5);
  const Corpus drifted = MakeCorpus(n, 9);

  obs::MetricsRegistry registry;
  ServeOptions sopts;
  sopts.shards = 4;
  sopts.seed = 11;
  sopts.metrics = &registry;
  ShardedRankServer server(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, sopts);
  Check(server.Update(base.popularity, base.zero, base.birth),
        "initial publish must succeed (no faults armed yet)");

  net::NetDaemonOptions nopts;
  nopts.deadline_us = 50 * 1000;  // 50ms serving deadline per query
  nopts.metrics = &registry;
  net::NetDaemon daemon(server, nopts);
  daemon.Start();

  // The adversarial schedule, deterministic given the seed:
  //  - every 3rd publish dies at the RCU boundary, the 5th during shard
  //    rebuild (two distinct failing phases);
  //  - the 2nd query the event loop serves stalls for 150ms. The rest of
  //    its window was read with it, so their turn comes more than the 50ms
  //    deadline after that read: they must shed explicitly. (The 2nd, not a
  //    later hit: it always has a window's worth of queries behind it.)
  //  - 1-in-100 other queries eat a 200us slowdown on the serve hot path.
  fault::FaultPlan plan;
  std::string error;
  const bool parsed = fault::FaultPlan::Parse(
      "point=publish.rcu_publish,action=fail,every=3;"
      "point=publish.shards,action=fail,nth=5,max_fires=1;"
      "point=serve.query,action=delay,delay_us=150000,nth=2,max_fires=1;"
      "point=serve.query,action=delay,delay_us=200,prob=0.01;"
      "seed=7",
      &plan, &error);
  Check(parsed, "fault plan failed to parse: " + error);
  fault::FaultInjector injector(plan, &registry);

  std::atomic<size_t> served{0};
  std::atomic<size_t> shed{0};
  size_t publish_failures = 0;
  size_t publish_successes = 0;

  {
    fault::ScopedFaultInjector scoped(&injector);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        net::NetClient client;
        Check(client.Connect("127.0.0.1", daemon.port(), 10),
              "client could not connect to the daemon");
        Rng rng(100 + static_cast<uint64_t>(p));
        uint64_t next_id = 1;
        for (int w = 0; w < kWindows; ++w) {
          const size_t window_shed =
              RunWindow(client, rng, &next_id, kWindowSize, n);
          shed.fetch_add(window_shed, std::memory_order_relaxed);
          served.fetch_add(kWindowSize - window_shed,
                           std::memory_order_relaxed);
        }
      });
    }

    // The writer keeps publishing while the clients hammer the daemon;
    // the planned publish faults roll their attempts back.
    for (int i = 0; i < kChaosUpdates; ++i) {
      const Corpus& inputs = (i % 2 == 0) ? drifted : base;
      if (server.Update(inputs.popularity, inputs.zero, inputs.birth)) {
        ++publish_successes;
      } else {
        ++publish_failures;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    for (std::thread& t : producers) t.join();

    Check(publish_failures > 0, "the plan must have killed some publishes");
    const uint64_t publish_fires = injector.fired(fault::kPublishRcu) +
                                   injector.fired(fault::kPublishShards);
    Check(publish_fires == publish_failures,
          "every publish fire must map to exactly one rolled-back Update");
    Check(shed.load() > 0, "the stalled query must shed at least one query");
  }

  // End the chaos phase on a guaranteed-failed publish (a one-shot merge
  // fault), so the degraded steady state is observable before recovery.
  {
    fault::FaultPlan doom;
    Check(fault::FaultPlan::Parse(
              "point=publish.merge,action=fail,nth=1,max_fires=1", &doom,
              &error),
          "doom plan failed to parse: " + error);
    fault::FaultInjector doom_injector(doom);
    fault::ScopedFaultInjector scoped(&doom_injector);
    Check(!server.Update(drifted.popularity, drifted.zero, drifted.birth),
          "the doomed merge publish must roll back");
    ++publish_failures;
  }

  // --- Chaos-phase invariants -------------------------------------------
  const size_t total = static_cast<size_t>(kProducers) * kWindows * kWindowSize;
  Check(served.load() + shed.load() == total,
        "every submitted query must resolve exactly once");
  Check(server.publish_failures() == publish_failures,
        "server failure accounting disagrees with the writer");
  Check(server.epoch() == 1 + publish_successes,
        "epoch must advance only on clean publishes");
  Check(server.degraded(), "the doomed publish must leave the server degraded");
  Check(server.epochs_since_publish() > 0,
        "degraded server must report its staleness age");

  // --- Recovery: faults are gone; one clean publish heals everything ----
  Check(server.Update(base.popularity, base.zero, base.birth),
        "publish must succeed once faults clear");
  Check(!server.degraded(), "clean publish must clear the degraded flag");
  Check(server.epochs_since_publish() == 0,
        "clean publish must reset the staleness age");

  {
    net::NetClient client;
    Check(client.Connect("127.0.0.1", daemon.port(), 10),
          "client could not connect to the daemon");
    Rng rng(999);
    uint64_t next_id = 1;
    Check(RunWindow(client, rng, &next_id, kWindowSize, n) == 0,
          "post-recovery queries must all be served");
  }
  // Drain joins the event loop, so the daemon's counters are final below.
  Check(daemon.Drain(), "the daemon must drain cleanly");
  const uint64_t net_shed =
      registry.Snapshot().counters.at("net/deadline_exceeded");
  Check(daemon.stats().deadline_exceeded == shed.load() &&
            net_shed == shed.load(),
        "daemon shed accounting (stats " +
            std::to_string(daemon.stats().deadline_exceeded) +
            ", net/deadline_exceeded " + std::to_string(net_shed) +
            ") disagrees with the " + std::to_string(shed.load()) +
            " client-observed timeouts");

  std::cout << "chaos_serve: OK\n"
            << "  queries served          " << served.load() + kWindowSize
            << "\n"
            << "  explicit deadline sheds " << shed.load() << "\n"
            << "  publishes (ok/failed)   " << publish_successes + 2 << "/"
            << publish_failures << "\n"
            << "  fault fires             " << injector.fired_total() << "\n"
            << "  final epoch             " << server.epoch() << " (degraded="
            << (server.degraded() ? "yes" : "no") << ")\n";
  return 0;
}
