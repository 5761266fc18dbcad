// The in-process workloads, refresh-1m and families, share one loop: a
// single thread serves a fixed query count per server through ServeBatch
// with the clicks recorded, then runs each server's refresh cycle. One
// thread makes the trajectory a function of the seed alone, so qpc and the
// served-list digest over the first rounds repeat exactly on a rerun.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/policy/policy_factory.h"
#include "harness.h"

namespace perfbench {

using namespace randrank;

namespace {

struct InprocConfig {
  size_t n = 0;
  std::vector<std::shared_ptr<const StochasticRankingPolicy>> policies;
  /// Queries each server answers per round (a multiple of kBatch).
  size_t queries_per_round = 0;
  /// Rounds whose served lists feed qpc and the digest; always run in full,
  /// so the two are the same on every rerun with the same seed.
  size_t qpc_rounds = 0;
  /// Leading rounds left out of the timing metrics while caches warm.
  size_t warmup_rounds = 0;
  /// Measured rounds a run makes at least, so the p90 of a slow refresh
  /// still has ten samples beyond it on a slower host.
  size_t min_measured_rounds = 0;
  /// Set-up repetitions; setup_s is their median.
  size_t setup_reps = 1;
  double seconds = 0.0;
  /// Names the serving and click streams ("main", or "alt" for the second
  /// seed qpc is reported under).
  std::string stream = "main";
  bool traced = false;
};

struct Arm {
  std::string family;
  std::unique_ptr<ShardedRankServer> server;
  ShardedRankServer::Context ctx;
  ServingPageState state;
  Rng fold_rng{0};
  Rng click_rng{0};
  std::vector<double> cpu_ns_per_query;  // per measured round
  std::vector<double> last_pop;
  std::vector<uint8_t> last_zero;
};

struct InprocResult {
  double setup_s = 0.0;
  QpcMean qpc;
  Digest digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t rounds = 0;
  std::map<std::string, std::vector<double>> batch_us;  // ServeBatch wall
                                                        // time by family
  std::vector<double> cpu_us_per_query;      // per measured round, all arms
  std::vector<RefreshTimes> refresh;         // measured rounds
  std::vector<double> churn_ms;              // DrawDeaths + ApplyDeaths
  std::map<std::string, double> cpu_ns_per_query;  // by family (median)
  double serve_ns_p50 = 0.0;                 // program's serve histogram
  SpanLog spans;
  ServingPageState final_state;
  SpeedProbe speed;  // sampled once per measured round
};

std::vector<std::unique_ptr<Arm>> MakeArms(const InprocConfig& cfg,
                                           const ServingPageState& corpus,
                                           uint64_t seed,
                                           obs::MetricsRegistry* metrics,
                                           obs::TraceLog* trace,
                                           double* setup_s) {
  std::vector<std::unique_ptr<Arm>> arms;
  std::vector<double> reps;
  for (size_t rep = 0; rep < std::max<size_t>(1, cfg.setup_reps); ++rep) {
    arms.clear();
    for (const auto& policy : cfg.policies) {
      auto arm = std::make_unique<Arm>();
      arm->family = FamilySlug(policy->Label());
      arm->state = corpus;
      arms.push_back(std::move(arm));
    }
    // Set-up is the program's own calls: construction and first publish.
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < arms.size(); ++i) {
      Arm& arm = *arms[i];
      ServeOptions sopts;
      sopts.shards = kShards;
      sopts.seed = DeriveSeed(seed, cfg.stream + "/server/" + arm.family);
      sopts.metrics = metrics;
      sopts.trace = trace;
      arm.server = std::make_unique<ShardedRankServer>(cfg.policies[i], cfg.n,
                                                       sopts);
      arm.server->Update(arm.state.popularity, arm.state.zero_awareness,
                         arm.state.birth_step);
    }
    reps.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  *setup_s = Median(reps);
  for (auto& arm : arms) {
    arm->ctx = arm->server->CreateContext();
    arm->fold_rng = Rng(DeriveSeed(seed, cfg.stream + "/fold/" + arm->family));
    arm->click_rng =
        Rng(DeriveSeed(seed, cfg.stream + "/clicks/" + arm->family));
    arm->last_pop = arm->state.popularity;
    arm->last_zero = arm->state.zero_awareness;
  }
  return arms;
}

InprocResult RunInproc(const InprocConfig& cfg, const Args& args,
                       const ServingPageState& corpus) {
  InprocResult res;
  const CommunityParams community = Community(cfg.n);
  const ClickModel clicks(corpus.quality);
  const PageLifecycle life(community, kEpochsPerDay);
  // Churn depends on the workload seed alone: every server of a run and
  // every stream sees the same births.
  Rng churn_rng(DeriveSeed(args.seed, "churn"));

  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<obs::TraceLog> trace;
  SpanLog& spans = res.spans;
  if (cfg.traced) {
    registry = std::make_unique<obs::MetricsRegistry>();
    obs::TraceOptions topts;
    topts.sample_every = 1024;
    trace = std::make_unique<obs::TraceLog>(topts);
  }
  auto arms = MakeArms(cfg, corpus, args.seed, registry.get(), trace.get(),
                       &res.setup_s);
  if (trace) trace->Drain();  // set-up publishes are not measured

  QueryBatch batch(kTopM, kBatch);
  const size_t batches = cfg.queries_per_round / kBatch;
  const double t_start = NowSec();
  for (size_t round = 0;
       round < cfg.qpc_rounds ||
       round < cfg.warmup_rounds + cfg.min_measured_rounds ||
       NowSec() - t_start < cfg.seconds;
       ++round) {
    const bool measured = round >= cfg.warmup_rounds;
    const bool in_prefix = round < cfg.qpc_rounds;
    const int s_round = cfg.traced ? spans.Begin("round") : 0;
    double round_cpu_ns = 0.0;
    size_t round_queries = 0;
    for (auto& arm_ptr : arms) {
      Arm& arm = *arm_ptr;
      const int s_serve = cfg.traced ? spans.Begin("serve", s_round) : 0;
      const uint64_t c0 = ThreadCpuNs();
      for (size_t b = 0; b < batches; ++b) {
        const uint64_t t0 = NowNs();
        arm.server->ServeBatch(arm.ctx, &batch);
        const uint64_t t1 = NowNs();
        if (measured) {
          res.batch_us[arm.family].push_back(static_cast<double>(t1 - t0) *
                                             1e-3);
        }
        for (const auto& list : batch.results) {
          ++res.attempted;
          if (!ValidList(list, cfg.n)) {
            ++res.failed;
            continue;
          }
          if (in_prefix) {
            res.qpc.Add(clicks.Qpc(list));
            res.digest.Add(list);
          }
          arm.server->RecordVisit(arm.ctx,
                                  list[clicks.SampleRank(arm.click_rng, list.size())]);
        }
      }
      arm.server->FlushFeedback(arm.ctx);
      const double cpu = static_cast<double>(ThreadCpuNs() - c0);
      if (cfg.traced) spans.End(s_serve);
      if (measured) {
        arm.cpu_ns_per_query.push_back(
            cpu / static_cast<double>(cfg.queries_per_round));
        round_cpu_ns += cpu;
        round_queries += cfg.queries_per_round;
      }
    }
    if (measured) {
      res.cpu_us_per_query.push_back(round_cpu_ns * 1e-3 /
                                     static_cast<double>(round_queries));
      res.speed.Sample();
    }
    const uint64_t d0 = NowNs();
    const std::vector<uint32_t> deaths = life.DrawDeaths(churn_rng);
    const double draw_ms = static_cast<double>(NowNs() - d0) * 1e-6;
    const auto epoch = static_cast<int64_t>(round + 1);
    for (auto& arm_ptr : arms) {
      Arm& arm = *arm_ptr;
      RefreshHooks hooks;
      if (cfg.traced) {
        hooks.spans = &spans;
        hooks.trace = trace.get();
        hooks.parent = s_round;
        hooks.last_pop = &arm.last_pop;
        hooks.last_zero = &arm.last_zero;
      }
      const RefreshTimes t =
          Refresh(*arm.server, &arm.state, arm.fold_rng, deaths, epoch, hooks);
      ++res.attempted;
      if (!t.ok) ++res.failed;
      if (measured) {
        res.refresh.push_back(t);
        res.churn_ms.push_back(draw_ms + t.churn_ms);
      }
    }
    if (cfg.traced) spans.End(s_round);
    res.rounds = round + 1;
  }
  for (auto& arm : arms) {
    res.cpu_ns_per_query[arm->family] = Median(arm->cpu_ns_per_query);
  }
  if (registry) {
    obs::HistogramSnapshot serve;
    for (const auto& [name, h] : registry->Snapshot().histograms) {
      if (name.rfind("serve/latency_ns/", 0) == 0) serve.Merge(h);
    }
    res.serve_ns_p50 = serve.Quantile(0.5);
    WriteSpans(args, spans, "main", /*truncate=*/true);
  }
  res.final_state = arms.front()->state;
  return res;
}

/// The headline number obs.trace_overhead compares between the untraced and
/// traced halves of a traced run.
using Headline = double (*)(const InprocResult&);

double MedianRefreshCpuMs(const InprocResult& r) {
  std::vector<double> v;
  for (const RefreshTimes& t : r.refresh) v.push_back(t.cpu_ms);
  return ToRef(Median(v), r.speed.speed());
}

double MedianCpuUsPerQuery(const InprocResult& r) {
  return ToRef(Median(r.cpu_us_per_query), r.speed.speed());
}

/// Wall-clock latency of a ServeBatch call: each family's percentile,
/// averaged over the families served (the pooled distribution is a mixture
/// whose median falls between families).
void ReportBatchLatency(const InprocResult& r, Report* report) {
  double p50 = 0.0, p90 = 0.0;
  for (const auto& [family, v] : r.batch_us) {
    p50 += Quantile(v, 0.5) / static_cast<double>(r.batch_us.size());
    p90 += Quantile(v, 0.9) / static_cast<double>(r.batch_us.size());
  }
  report->Set("latency_p50_us", p50, "us");
  report->Set("latency_p90_us", p90, "us");
}

void PrintDigest(const Args& args, const InprocResult& r) {
  std::fprintf(stderr,
               "perfbench %s seed=%" PRIu64 ": rounds=%zu qpc=%.17g "
               "digest=%016" PRIx64 "\n",
               args.workload.c_str(), args.seed, r.rounds, r.qpc.value(),
               r.digest.value());
}

void RunInprocWorkload(const Args& args, InprocConfig cfg, Headline headline,
                       Report* report) {
  const ServingPageState corpus = MakeWarmCorpus(Community(cfg.n), args.seed);
  const std::vector<int>& cpus = AllowedCpus();
  if (!cpus.empty()) PinThread(0, cpus.front());
  if (!args.trace) {
    cfg.seconds = args.seconds;
    const InprocResult r = RunInproc(cfg, args, corpus);
    PrintDigest(args, r);
    std::map<std::string, double> family_ns;
    for (const auto& [family, ns] : r.cpu_ns_per_query) {
      family_ns[family] = ToRef(ns, r.speed.speed());
    }
    if (family_ns.size() < StandardPolicyFamilies().size()) {
      // Families this workload does not serve are measured on its own
      // corpus after the run (round 0 warms caches).
      FamilySweep sweep(r.final_state, args.seed);
      SpeedProbe speed;
      for (size_t round = 0; round <= 16; ++round) {
        sweep.Round(10'000'000, /*record=*/round > 0, &speed);
      }
      for (const auto& [family, ns] : sweep.NsPerQuery()) {
        family_ns.emplace(family, ToRef(ns, speed.speed()));
      }
    }
    report->Set("rss_mb", PeakRssMb(), "MiB");
    report->Attempt(r.attempted);
    report->Fail(r.failed);
    report->Set("ok_ratio",
                1.0 - static_cast<double>(r.failed) /
                          static_cast<double>(std::max<uint64_t>(1, r.attempted)),
                "ratio");
    report->Set("setup_s", r.setup_s, "s");
    report->Set("qpc", r.qpc.value(), "ratio");
    report->Set("cpu_us_per_query", MedianCpuUsPerQuery(r), "ref_us");
    ReportRefreshCpu(r.refresh, r.speed.speed(), report);
    for (const auto& [family, ns] : family_ns) {
      report->Set("cpu_ns_per_query." + family, ns, "ref_ns");
    }
    return;
  }
  // Traced run: an untraced half, then a traced half with the program's
  // registry and trace attached and harness spans recorded.
  InprocConfig half = cfg;
  half.seconds = args.seconds / 2;
  half.setup_reps = 1;
  half.min_measured_rounds = cfg.min_measured_rounds / 2;
  const InprocResult plain = RunInproc(half, args, corpus);
  half.traced = true;
  const InprocResult traced = RunInproc(half, args, corpus);
  report->Attempt(plain.attempted + traced.attempted);
  report->Fail(plain.failed + traced.failed);
  report->Set("obs.trace_overhead", headline(traced) / headline(plain), "ratio");
  report->Set("host.speed_probe_ns", plain.speed.speed(), "ns");
  ReportBatchLatency(plain, report);
  ReportRefreshWall(plain.refresh, report);
  ReportRefreshLayers(traced.refresh, traced.churn_ms, traced.spans, report);
  report->Set("serve.server.serve_ns", traced.serve_ns_p50, "ns");
  // qpc of the same rounds under a second serving and click seed: the law,
  // not one random stream, sets it.
  InprocConfig alt = cfg;
  alt.stream = "alt";
  alt.seconds = 0.0;
  alt.setup_reps = 1;
  alt.min_measured_rounds = 0;
  report->Set("qpc.alt_seed", RunInproc(alt, args, corpus).qpc.value(),
              "ratio");
  report->Set("qpc.main_seed", plain.qpc.value(), "ratio");
  RunLayerProbes(args, traced.final_state, /*socket_probe=*/true, report);
}

}  // namespace

void RunRefresh1m(const Args& args, Report* report) {
  InprocConfig cfg;
  cfg.n = 1000000;
  cfg.policies = {MakePolicyFromLabel("selective(r=0.10,k=2)")};
  cfg.queries_per_round = 32768;
  cfg.qpc_rounds = 8;
  cfg.warmup_rounds = 2;
  cfg.min_measured_rounds = 100;
  cfg.setup_reps = 5;
  RunInprocWorkload(args, cfg, MedianRefreshCpuMs, report);
}

void RunFamilies(const Args& args, Report* report) {
  InprocConfig cfg;
  cfg.n = 100000;
  cfg.policies = StandardPolicyFamilies();
  cfg.queries_per_round = 32768;
  cfg.qpc_rounds = 16;
  cfg.warmup_rounds = 3;
  cfg.setup_reps = 9;
  RunInprocWorkload(args, cfg, MedianCpuUsPerQuery, report);
}

}  // namespace perfbench
