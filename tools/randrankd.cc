// randrankd: the stand-alone randrank serving daemon.
//
// Hosts a ShardedRankServer behind the epoll NetDaemon (src/net/) and runs
// the closed serve -> feedback -> publish loop in the foreground thread:
// every --epoch-ms, observed visits are drained and folded into awareness /
// popularity and a new snapshot epoch is published under live connections —
// optionally hot-swapping the ranking policy every --swap-every publishes.
// QUERY / METRICS / HEALTH frames are served per docs/PROTOCOL.md; operator
// notes live in docs/RUNBOOK.md.
//
//   ./build/tools/randrankd --port 7207 --policy "selective(r=0.10,k=2)"
//
// Startup prints exactly one line to stdout once the socket is listening:
//
//   randrankd listening on <addr>:<port> pid=<pid> policy=<label> ...
//
// Scripts (tools/net_client, the CI e2e smoke) parse the port out of it, so
// --port 0 (kernel-assigned) composes with automation. SIGTERM / SIGINT
// trigger a graceful drain: accept stops, new queries get ERROR/DRAINING,
// in-flight queries complete and flush, then the process exits 0 (or 3 when
// the --drain-timeout-ms deadline force-closed leftovers).

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "core/community.h"
#include "core/policy/policy_factory.h"
#include "fault/fault.h"
#include "net/daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/parse.h"
#include "util/rng.h"

namespace {

// Plain signal flag: the publish loop polls it between sleeps, so the
// handler itself does nothing async-signal-unsafe.
volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int /*sig*/) { g_stop = 1; }

// A flag value is plain decimal digits within [min, max] (`max` is the
// destination type's range); a sign, junk, or an out-of-range value is a
// flag error rather than a silent wrap.
uint64_t ParseU64(const char* s, const char* flag, uint64_t min = 0,
                  uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t v = 0;
  if (!randrank::ParseU64(s, &v) || v < min || v > max) {
    std::cerr << "randrankd: bad value for " << flag << ": " << s << "\n";
    std::exit(2);
  }
  return v;
}

void Usage() {
  std::cerr <<
      "usage: randrankd [options]\n"
      "  --bind ADDR           listen address (default 127.0.0.1)\n"
      "  --port P              TCP port; 0 = kernel-assigned (default 0)\n"
      "  --pages N             community size (default 20000)\n"
      "  --users U             community users (default 1000)\n"
      "  --shards S            serving shards (default 4)\n"
      "  --policy LABEL        ranking policy (default selective(r=0.10,k=2))\n"
      "  --swap-policy LABEL   alternate policy for hot-swaps\n"
      "                        (default plackett-luce(T=0.25))\n"
      "  --swap-every K        hot-swap policy every K publishes; 0 = never\n"
      "                        (default 0)\n"
      "  --epoch-ms MS         publish cadence; 0 = never publish after the\n"
      "                        initial epoch (default 250)\n"
      "  --max-epochs N        exit (drain) after N publishes; 0 = forever\n"
      "  --seconds S           exit (drain) after S seconds; 0 = forever\n"
      "  --max-inflight N      QUERY frames served per read of one\n"
      "                        connection; the rest get OVERLOADED\n"
      "                        (default 4096)\n"
      "  --max-conns N         connection cap (default 1024)\n"
      "  --max-m N             per-query result cap (default 1024)\n"
      "  --drain-timeout-ms MS graceful-drain deadline (default 10000)\n"
      "  --deadline-us US      per-query serving deadline, counted from\n"
      "                        the socket read; expired queries get\n"
      "                        ERROR/DEADLINE_EXCEEDED; 0 = off (default 0)\n"
      "  --fault-plan SPEC     deterministic fault schedule (chaos drills;\n"
      "                        see src/fault/fault.h for the grammar, e.g.\n"
      "                        \"point=net.write,action=reset,prob=0.05\").\n"
      "                        Arms after the initial epoch publishes, so\n"
      "                        the daemon always starts serving\n"
      "  --seed SEED           community + serving seed (default 2026)\n"
      "  --trace-every N       sampled span stride, drained to stderr;\n"
      "                        0 = off (default 0)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace randrank;

  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;
  size_t pages = 20000;
  size_t users = 1000;
  size_t shards = 4;
  std::string policy_label = "selective(r=0.10,k=2)";
  std::string swap_label = "plackett-luce(T=0.25)";
  uint64_t swap_every = 0;
  uint64_t epoch_ms = 250;
  uint64_t max_epochs = 0;
  uint64_t seconds = 0;
  size_t max_inflight = 4096;
  size_t max_conns = 1024;
  uint32_t max_m = 1024;
  uint64_t drain_timeout_ms = 10000;
  uint64_t deadline_us = 0;
  std::string fault_plan_spec;
  uint64_t seed = 2026;
  size_t trace_every = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "randrankd: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--bind") {
      bind_address = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(ParseU64(
          next(), "--port", 0, std::numeric_limits<uint16_t>::max()));
    } else if (arg == "--pages") {
      pages = ParseU64(next(), "--pages", 1);
    } else if (arg == "--users") {
      users = ParseU64(next(), "--users", 1);
    } else if (arg == "--shards") {
      shards = ParseU64(next(), "--shards");
    } else if (arg == "--policy") {
      policy_label = next();
    } else if (arg == "--swap-policy") {
      swap_label = next();
    } else if (arg == "--swap-every") {
      swap_every = ParseU64(next(), "--swap-every");
    } else if (arg == "--epoch-ms") {
      epoch_ms = ParseU64(next(), "--epoch-ms");
    } else if (arg == "--max-epochs") {
      max_epochs = ParseU64(next(), "--max-epochs");
    } else if (arg == "--seconds") {
      seconds = ParseU64(next(), "--seconds");
    } else if (arg == "--max-inflight") {
      max_inflight = ParseU64(next(), "--max-inflight");
    } else if (arg == "--max-conns") {
      max_conns = ParseU64(next(), "--max-conns");
    } else if (arg == "--max-m") {
      max_m = static_cast<uint32_t>(ParseU64(
          next(), "--max-m", 1, std::numeric_limits<uint32_t>::max()));
    } else if (arg == "--drain-timeout-ms") {
      drain_timeout_ms = ParseU64(next(), "--drain-timeout-ms");
    } else if (arg == "--deadline-us") {
      deadline_us = ParseU64(next(), "--deadline-us");
    } else if (arg == "--fault-plan") {
      fault_plan_spec = next();
    } else if (arg == "--seed") {
      seed = ParseU64(next(), "--seed");
    } else if (arg == "--trace-every") {
      trace_every = ParseU64(next(), "--trace-every");
    } else {
      std::cerr << "randrankd: unknown flag " << arg << "\n";
      Usage();
      return 2;
    }
  }

  std::string error;
  fault::FaultPlan fault_plan;
  if (!fault_plan_spec.empty() &&
      !fault::FaultPlan::Parse(fault_plan_spec, &fault_plan, &error)) {
    std::cerr << "randrankd: --fault-plan: " << error << "\n";
    return 2;
  }
  std::shared_ptr<const StochasticRankingPolicy> policy =
      MakePolicyFromLabel(policy_label, &error);
  if (policy == nullptr) {
    std::cerr << "randrankd: --policy: " << error << "\n";
    return 2;
  }
  std::shared_ptr<const StochasticRankingPolicy> swap_policy;
  if (swap_every > 0) {
    swap_policy = MakePolicyFromLabel(swap_label, &error);
    if (swap_policy == nullptr) {
      std::cerr << "randrankd: --swap-policy: " << error << "\n";
      return 2;
    }
  }

  CommunityParams community = CommunityParams::Default();
  community.n = pages;
  community.u = users;

  Rng rng(seed);
  ServingPageState state = MakeServingPageState(community, rng);

  obs::MetricsRegistry metrics;
  obs::TraceOptions topts;
  topts.sample_every = trace_every;
  obs::TraceLog trace(topts);

  ServeOptions sopts;
  sopts.shards = shards;
  sopts.seed = seed + 1;
  sopts.metrics = &metrics;
  sopts.trace = trace_every > 0 ? &trace : nullptr;
  ShardedRankServer server(policy, community.n, sopts);
  server.Update(state.popularity, state.zero_awareness, state.birth_step);

  net::NetDaemonOptions nopts;
  nopts.bind_address = bind_address;
  nopts.port = port;
  nopts.max_connections = max_conns;
  nopts.max_inflight = max_inflight;
  nopts.max_query_m = max_m;
  nopts.drain_timeout_ms = drain_timeout_ms;
  nopts.deadline_us = deadline_us;
  nopts.metrics = &metrics;
  nopts.trace = trace_every > 0 ? &trace : nullptr;

  net::NetDaemon daemon(server, nopts);
  try {
    daemon.Start();
  } catch (const std::exception& e) {
    std::cerr << "randrankd: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // Chaos drills: arm the fault schedule only after the initial epoch is
  // serving and the socket is up, so a publish-killing plan degrades a live
  // daemon instead of preventing startup. Uninstalled before the injector
  // dies at end of scope.
  std::unique_ptr<fault::FaultInjector> fault_injector;
  if (!fault_plan_spec.empty()) {
    fault_injector =
        std::make_unique<fault::FaultInjector>(fault_plan, &metrics);
    fault::InstallFaultInjector(fault_injector.get());
  }

  // The one machine-readable startup line; flushed so a pipe reader sees it
  // before any traffic flows.
  std::cout << "randrankd listening on " << bind_address << ":"
            << daemon.port() << " pid=" << ::getpid() << " policy=\""
            << policy->Label() << "\" pages=" << community.n
            << " shards=" << shards << " epoch_ms=" << epoch_ms
            << " swap_every=" << swap_every << std::endl;

  // Publish loop (this thread is the single writer): drain visit feedback,
  // fold it into the page state, publish a fresh epoch — optionally riding a
  // policy hot-swap — until a signal or a --seconds/--max-epochs limit.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t_start = Clock::now();
  uint64_t publishes = 0;
  bool on_swap_policy = false;
  while (g_stop == 0) {
    if (seconds > 0 &&
        Clock::now() - t_start >= std::chrono::seconds(seconds)) {
      break;
    }
    if (epoch_ms == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    // Sleep the cadence in short slices so signals are honored promptly.
    const Clock::time_point next_publish =
        Clock::now() + std::chrono::milliseconds(epoch_ms);
    while (g_stop == 0 && Clock::now() < next_publish) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<uint64_t>(epoch_ms, 50)));
    }
    if (g_stop != 0) break;

    FoldVisits(server.DrainVisits(), &state, rng);
    std::shared_ptr<const StochasticRankingPolicy> next_policy;
    if (swap_every > 0 && (publishes + 1) % swap_every == 0) {
      on_swap_policy = !on_swap_policy;
      next_policy = on_swap_policy ? swap_policy : policy;
    }
    // A rolled-back publish (fault-injected or otherwise) still counts
    // toward --max-epochs so a hostile plan cannot pin the daemon alive
    // forever; the server keeps serving the previous epoch and its own
    // publish_failures()/degraded() accounting feeds the drained line.
    server.Update(state.popularity, state.zero_awareness, state.birth_step,
                  next_policy);
    ++publishes;
    if (trace_every > 0) {
      for (const std::string& line : trace.Drain()) std::cerr << line << "\n";
    }
    if (max_epochs > 0 && publishes >= max_epochs) break;
  }

  const bool clean = daemon.Drain();
  if (fault_injector != nullptr) fault::InstallFaultInjector(nullptr);
  const net::NetDaemonStats stats = daemon.stats();
  std::cout << "randrankd drained " << (clean ? "clean" : "FORCED")
            << ": epochs=" << server.epoch() << " queries=" << stats.queries
            << " replies=" << stats.replies
            << " shed_overloaded=" << stats.shed_overloaded
            << " rejected_draining=" << stats.rejected_draining
            << " deadline_exceeded=" << stats.deadline_exceeded
            << " bad_frames=" << stats.bad_frames
            << " accepts=" << stats.accepts
            << " publish_failures=" << server.publish_failures();
  for (size_t i = 0; i < ShardedRankServer::kPublishPhases.size(); ++i) {
    if (server.publish_failures(i) != 0) {
      std::cout << " publish_failures/" << ShardedRankServer::kPublishPhases[i]
                << "=" << server.publish_failures(i);
    }
  }
  std::cout << " degraded=" << (server.degraded() ? 1 : 0) << " fault_fires="
            << (fault_injector ? fault_injector->fired_total() : 0)
            << std::endl;
  return clean ? 0 : 3;
}
