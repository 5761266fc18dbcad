// Chaos drill for the serving stack, self-checking: an adversarial (but
// fully deterministic, seeded) FaultPlan is armed in-process while producer
// threads pump queries through a deadline-bearing BatchQueue and a writer
// thread publishes epochs that keep failing. The drill proves the
// robustness contract end to end:
//
//   * every query resolves within a bound — with its correct top-m result
//     list or an explicit DeadlineExceededError; never a hang, never a
//     silently wrong answer;
//   * failed publishes roll back: the server keeps serving the previous
//     epoch, counts the failures, and reports degraded();
//   * the queue's shed accounting matches what clients actually observed;
//   * when the faults clear, one clean publish recovers everything.
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
#include <future>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/batch_queue.h"
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

/// Pulls one future with a hard hang bound and classifies the outcome.
/// Returns true when the query was served, false when it was shed with the
/// explicit deadline error. Anything else — timeout waiting, wrong result
/// size, out-of-range or duplicate pages, any other exception — is a
/// violation.
bool ResolveOne(std::future<std::vector<uint32_t>>& f, size_t m, size_t n) {
  if (f.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    Violation("query hung: future not ready after 10s");
  }
  try {
    const std::vector<uint32_t> pages = f.get();
    Check(pages.size() == m, "served query returned " +
                                 std::to_string(pages.size()) +
                                 " slots, want " + std::to_string(m));
    const std::set<uint32_t> unique(pages.begin(), pages.end());
    Check(unique.size() == pages.size(), "served query returned duplicates");
    for (const uint32_t page : pages) {
      Check(page < n, "served query returned out-of-range page");
    }
    return true;
  } catch (const DeadlineExceededError&) {
    return false;  // explicit shed: allowed, counted by the caller
  } catch (const std::exception& ex) {
    Violation(std::string("unexpected query error: ") + ex.what());
  }
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
  const int kWindows = fast ? 4 : 12;  // windows of in-flight futures
  const int kWindowSize = 32;          // futures per window
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

  BatchQueueOptions qopts;
  qopts.deadline_us = 50 * 1000;  // 50ms serving deadline per query
  qopts.metrics = &registry;
  qopts.obs_prefix = "queue";
  BatchQueue queue(server, qopts);

  // The adversarial schedule, deterministic given the seed:
  //  - every 3rd publish dies at the RCU boundary, the 5th during shard
  //    rebuild (two distinct failing phases);
  //  - the 2nd consumer drain stalls for 150ms — queries caught behind it
  //    blow their 50ms deadline and must shed explicitly (2nd, not a later
  //    one: a drain swaps out the whole pending queue, so a windowed
  //    producer workload is only guaranteed a handful of drains);
  //  - 1-in-100 queries eat a 200us slowdown on the serve hot path.
  fault::FaultPlan plan;
  std::string error;
  const bool parsed = fault::FaultPlan::Parse(
      "point=publish.rcu_publish,action=fail,every=3;"
      "point=publish.shards,action=fail,nth=5,max_fires=1;"
      "point=queue.serve,action=delay,delay_us=150000,nth=2,max_fires=1;"
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
        Rng rng(100 + static_cast<uint64_t>(p));
        for (int w = 0; w < kWindows; ++w) {
          std::vector<std::future<std::vector<uint32_t>>> window;
          std::vector<size_t> ms;
          window.reserve(kWindowSize);
          for (int q = 0; q < kWindowSize; ++q) {
            const size_t m = 1 + rng.NextIndex(20);
            ms.push_back(m);
            window.push_back(queue.Submit(m));
          }
          for (int q = 0; q < kWindowSize; ++q) {
            if (ResolveOne(window[q], ms[q], n)) {
              served.fetch_add(1, std::memory_order_relaxed);
            } else {
              shed.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }

    // The writer keeps publishing while the producers hammer the queue;
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
    Check(injector.fired(fault::kQueueServe) == 1,
          "the consumer-stall rule must fire");
    Check(shed.load() > 0, "the stalled drain must shed at least one query");
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

  const size_t shed_before_recovery = shed.load();
  std::vector<std::future<std::vector<uint32_t>>> window;
  std::vector<size_t> ms;
  Rng rng(999);
  for (int q = 0; q < kWindowSize; ++q) {
    const size_t m = 1 + rng.NextIndex(20);
    ms.push_back(m);
    window.push_back(queue.Submit(m));
  }
  for (int q = 0; q < kWindowSize; ++q) {
    Check(ResolveOne(window[q], ms[q], n),
          "post-recovery queries must all be served");
  }
  queue.Stop();  // joins the consumer: its shed counter is final below
  Check(queue.stats().deadline_expired == shed_before_recovery,
        "queue shed accounting disagrees with client-observed timeouts");

  std::cout << "chaos_serve: OK\n"
            << "  queries served          "
            << served.load() + static_cast<size_t>(kWindowSize) << "\n"
            << "  explicit deadline sheds " << shed.load() << "\n"
            << "  publishes (ok/failed)   " << publish_successes + 2 << "/"
            << publish_failures << "\n"
            << "  fault fires             " << injector.fired_total() << "\n"
            << "  final epoch             " << server.epoch() << " (degraded="
            << (server.degraded() ? "yes" : "no") << ")\n";
  return 0;
}
