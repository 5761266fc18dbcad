// Isolated layer timings for the traced run. Each layer the program calls
// internally (daemon -> queue -> server -> snapshot/cache -> policy) is also
// called here directly through its public functions, on the workload's own
// final corpus, so a layer's cost can be read without the layers around it.
#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/policy/policy_factory.h"
#include "harness.h"
#include "net/protocol.h"
#include "serve/batch_queue.h"
#include "serve/epoch_prefix_cache.h"
#include "serve/rank_snapshot.h"

namespace perfbench {

using namespace randrank;

namespace {

constexpr size_t kChunks = 7;
constexpr size_t kQueriesPerChunk = 4096;

/// Median over chunks of thread CPU ns per call of `fn` (one warm-up chunk).
template <typename Fn>
double NsPerCall(size_t calls_per_chunk, Fn&& fn) {
  std::vector<double> v;
  for (size_t chunk = 0; chunk <= kChunks; ++chunk) {
    const uint64_t c0 = ThreadCpuNs();
    for (size_t i = 0; i < calls_per_chunk; ++i) fn();
    const uint64_t c1 = ThreadCpuNs();
    if (chunk > 0) {
      v.push_back(static_cast<double>(c1 - c0) /
                  static_cast<double>(calls_per_chunk));
    }
  }
  return Median(v);
}

void ProbeProtocol(const std::vector<std::vector<uint32_t>>& lists,
                   Report* report) {
  std::vector<net::QueryReplyFrame> replies(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    replies[i].request_id = i + 1;
    replies[i].epoch = 1;
    replies[i].pages = lists[i];
  }
  std::vector<uint8_t> buf;
  size_t next = 0;
  const double encode_ns = NsPerCall(kQueriesPerChunk, [&] {
    const net::QueryReplyFrame& r = replies[next++ % replies.size()];
    buf.clear();
    net::AppendQuery({r.request_id, r.request_id, kTopM}, &buf);
    net::AppendQueryReply(r, &buf);
  });
  std::vector<std::vector<uint8_t>> queries(replies.size());
  std::vector<std::vector<uint8_t>> encoded(replies.size());
  for (size_t i = 0; i < replies.size(); ++i) {
    net::AppendQuery({replies[i].request_id, 7, kTopM}, &queries[i]);
    net::AppendQueryReply(replies[i], &encoded[i]);
  }
  net::QueryFrame q;
  net::QueryReplyFrame r;
  bool ok = true;
  next = 0;
  const double decode_ns = NsPerCall(kQueriesPerChunk, [&] {
    const size_t i = next++ % replies.size();
    ok &= net::DecodeQuery(queries[i].data() + net::kHeaderSize,
                           queries[i].size() - net::kHeaderSize, &q);
    ok &= net::DecodeQueryReply(encoded[i].data() + net::kHeaderSize,
                                encoded[i].size() - net::kHeaderSize, &r);
  });
  report->Attempt();
  if (!ok) report->Fail();
  report->Set("net.protocol.encode_ns", encode_ns, "ns");
  report->Set("net.protocol.decode_ns", decode_ns, "ns");
}

void ProbeQueueHop(ShardedRankServer& server, size_t n, Report* report) {
  constexpr size_t kWarm = 200;
  constexpr size_t kHops = 3000;
  // The consumer gets its own vCPU, as on the wire path.
  const std::vector<int> before = ThreadIds();
  BatchQueue queue(server);
  const std::vector<int> after = ThreadIds();
  std::vector<int> consumer;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::back_inserter(consumer));
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() >= 4 && consumer.size() == 1) PinThread(consumer[0], cpus[2]);
  std::vector<double> hop_us;
  uint64_t failed = 0;
  for (size_t i = 0; i < kWarm + kHops; ++i) {
    const uint64_t t0 = NowNs();
    const std::vector<uint32_t> list = queue.Submit(kTopM).get();
    const uint64_t t1 = NowNs();
    if (!ValidList(list, n)) ++failed;
    if (i >= kWarm) hop_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  queue.Stop();
  report->Attempt(kWarm + kHops);
  report->Fail(failed);
  report->Set("serve.queue.hop_us.p50", Quantile(hop_us, 0.5), "us");
  report->Set("serve.queue.hop_us.p90", Quantile(hop_us, 0.9), "us");
  report->Set("serve.queue.hop_us.n", static_cast<double>(hop_us.size()),
              "count");
}

}  // namespace

void RunLayerProbes(const Args& args, const ServingPageState& state,
                    bool socket_probe, Report* report) {
  if (socket_probe) RunSocketProbe(args, state, report);
  const size_t n = state.n();
  for (const auto& policy : StandardPolicyFamilies()) {
    const std::string family = FamilySlug(policy->Label());
    const bool main_family = family == "selective";

    // The server's whole serve call, per query.
    ServeOptions sopts;
    sopts.shards = kShards;
    sopts.seed = DeriveSeed(args.seed, "probe/server/" + family);
    ShardedRankServer server(policy, n, sopts);
    server.Update(state.popularity, state.zero_awareness, state.birth_step);
    ShardedRankServer::Context ctx = server.CreateContext();
    QueryBatch batch(kTopM, kBatch);

    // The publish layers: per-shard snapshots, then the epoch cache.
    Rng build_rng(DeriveSeed(args.seed, "probe/build/" + family));
    ServingView view;
    view.epoch = 1;
    view.policy = policy;
    const uint64_t s0 = NowNs();
    for (size_t s = 0; s < kShards; ++s) {
      std::vector<uint32_t> pages;
      for (uint32_t p = static_cast<uint32_t>(s); p < n; p += kShards) {
        pages.push_back(p);
      }
      view.shards.push_back(RankSnapshot::Build(
          policy, 1, pages, state.popularity, state.zero_awareness,
          state.birth_step, build_rng, /*build_epoch_state=*/false));
    }
    const uint64_t s1 = NowNs();
    const std::shared_ptr<const EpochPrefixCache> cache =
        EpochPrefixCache::Build(view);
    const uint64_t s2 = NowNs();
    if (main_family) {
      report->Set("serve.snapshot.build_ms",
                  static_cast<double>(s1 - s0) * 1e-6, "ms");
      report->Set("serve.cache.build_ms", static_cast<double>(s2 - s1) * 1e-6,
                  "ms");
    }

    // The policy layer on the cache's global view.
    const ShardView global = cache->AsView();
    std::vector<double> state_ms;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t e0 = NowNs();
      const auto built = policy->BuildEpochState(global);
      state_ms.push_back(static_cast<double>(NowNs() - e0) * 1e-6);
    }
    report->Set("core.policy.build_epoch_state_ms." + family, Median(state_ms),
                "ms");

    // The policy call alone, and the server's whole serve call around it,
    // timed in alternating chunks: their difference is the server's own
    // dispatch cost per query.
    PolicyScratch scratch;
    Rng rng(DeriveSeed(args.seed, "probe/prefix/" + family));
    std::vector<uint32_t> out;
    std::vector<double> prefix_ns, dispatch_ns;
    for (size_t chunk = 0; chunk <= kChunks; ++chunk) {
      const uint64_t c0 = ThreadCpuNs();
      for (size_t q = 0; q < kQueriesPerChunk; ++q) {
        out.clear();
        policy->ServePrefix(&global, 1, cache->policy_state.get(), scratch,
                            kTopM, rng, &out);
      }
      const uint64_t c1 = ThreadCpuNs();
      for (size_t b = 0; b < kQueriesPerChunk / kBatch; ++b) {
        server.ServeBatch(ctx, &batch);
      }
      const uint64_t c2 = ThreadCpuNs();
      if (chunk == 0) continue;  // warm-up
      const double prefix = static_cast<double>(c1 - c0) / kQueriesPerChunk;
      const double whole = static_cast<double>(c2 - c1) / kQueriesPerChunk;
      prefix_ns.push_back(prefix);
      dispatch_ns.push_back(whole - prefix);
    }
    report->Set("core.policy.serve_prefix_ns." + family, Median(prefix_ns),
                "ns");
    report->Set("serve.server.dispatch_ns." + family, Median(dispatch_ns),
                "ns");

    // Exploration share: slots served from outside the epoch's
    // deterministic top m (for the promotion families, the pool draws).
    const std::unordered_set<uint32_t> head(
        cache->det.begin(),
        cache->det.begin() +
            static_cast<ptrdiff_t>(std::min(kTopM, cache->det.size())));
    std::vector<std::vector<uint32_t>> lists;
    uint64_t slots = 0, explored = 0, invalid = 0;
    for (size_t q = 0; q < 20000; ++q) {
      out.clear();
      policy->ServePrefix(&global, 1, cache->policy_state.get(), scratch,
                          kTopM, rng, &out);
      if (!ValidList(out, n)) ++invalid;
      for (const uint32_t p : out) explored += head.count(p) == 0;
      slots += out.size();
      if (main_family && lists.size() < 1024) lists.push_back(out);
    }
    report->Attempt(20000);
    report->Fail(invalid);
    report->Set("core.policy.pool_share." + family,
                static_cast<double>(explored) /
                    static_cast<double>(std::max<uint64_t>(1, slots)),
                "ratio");

    if (main_family) {
      ProbeProtocol(lists, report);
      ProbeQueueHop(server, n, report);
    }
  }
}

}  // namespace perfbench
