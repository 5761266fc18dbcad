// Shared pieces of the benchmark harness: run arguments, the metric sink,
// timing helpers, the in-memory span log, the warm corpus, the click model
// and the output checks. Every workload drives the program only through its
// public headers; nothing here reaches into program internals.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/community.h"
#include "core/policy/stochastic_ranking_policy.h"
#include "core/visit_law.h"
#include "exp/page_lifecycle.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/feedback.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

namespace perfbench {

using randrank::Rng;

/// Results requested per query (the paper's page one).
inline constexpr size_t kTopM = 10;
/// Shards of every server (the randrankd default).
inline constexpr size_t kShards = 4;
/// Queries per ServeBatch call on the in-process paths.
inline constexpr size_t kBatch = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Seed of one named input or server stream, derived from the workload seed
/// so that every random choice of a run follows from --seed alone.
uint64_t DeriveSeed(uint64_t seed, const std::string& purpose);

// --- metric sink ------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Operations attempted / failed, and whether every output check passed.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Prints the one-line JSON result.
  void Print() const;

 private:
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- clocks and statistics --------------------------------------------------

double NowSec();                  // steady clock, seconds
uint64_t NowNs();                 // steady clock, nanoseconds
uint64_t ThreadCpuNs();           // calling thread's CPU time
uint64_t ProcessCpuNs();          // whole process CPU time
/// CPU time of another thread of this process, by kernel thread id.
uint64_t TidCpuNs(int tid);
int CurrentTid();
/// Kernel thread ids of this process, sorted.
std::vector<int> ThreadIds();

/// Quantile (q in [0,1]) of `v` by linear interpolation; 0 when empty.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// vCPUs this process may run on (read before any pinning), pinning of one
/// thread (0: the caller) to one of them, and whether every pin held.
const std::vector<int>& AllowedCpus();
bool PinThread(int tid, int cpu);
bool AllPinsHeld();

/// Host CPU time accounting from /proc/stat, for the steal share of a run.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
double StealPct(const CpuTimes& a, const CpuTimes& b);

/// Host speed, sampled on the measuring thread: the geometric mean of the
/// CPU time per iteration of three fixed loops of random reads with integer
/// mixing, over L1-, L2- and L3-sized buffers. The host's speed moves with
/// load on sibling hyperthreads and neighbouring VMs by up to 40% between
/// runs; CPU times scaled by it (ToRef) move by a third of that. The loops
/// are harness code that no program change touches.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the loops (about 3 ms) and records one sample.
  void Sample();
  /// Median ns per iteration over the samples.
  double speed() const { return Median(samples_); }

 private:
  std::vector<uint32_t> buf_;
  std::vector<double> samples_;
  uint64_t x_ = 0x2545f4914f6cdd1dULL;
  uint64_t sink_ = 0;
};

/// The probe's value at the reference speed the *_ref units are scaled to.
inline constexpr double kReferenceSpeedNs = 5.0;

/// A CPU time measured while the probe read `speed`, at reference speed.
inline double ToRef(double raw, double speed) {
  return speed > 0.0 ? raw * kReferenceSpeedNs / speed : raw;
}

// --- spans ------------------------------------------------------------------

/// In-memory span log kept by one harness thread around its calls into the
/// program's layers. Spans are written out when the run ends; a span's self
/// time is its duration minus the time its child spans cover.
class SpanLog {
 public:
  static constexpr int kNoParent = -1;
  int Begin(const char* name, int parent = kNoParent, uint64_t request = 0);
  void End(int span);
  /// Adds an already-timed span (for example a program-emitted phase).
  int Add(const char* name, uint64_t start_ns, uint64_t end_ns, int parent);
  /// Median self time in ms of every span name.
  std::map<std::string, double> MedianSelfMs() const;
  void Write(const std::string& path, const std::string& thread) const;

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    int parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
};

/// Appends the span log to `.bench_build/traces/<workload>.spans.jsonl`.
void WriteSpans(const Args& args, const SpanLog& log, const std::string& thread,
                bool truncate);

// --- corpus, clicks, checks -------------------------------------------------

/// The community the workloads serve: paper defaults at n pages.
randrank::CommunityParams Community(size_t n);

/// Warm, steady-state page state generated from `seed`: page qualities from
/// the paper's power-law quantiles in seeded order, ages drawn from the page
/// lifetime, awareness grown with age and quality, and a few percent of
/// pages zero-awareness newborns.
randrank::ServingPageState MakeWarmCorpus(const randrank::CommunityParams& c,
                                          uint64_t seed);

/// Epochs per simulated day of page churn.
inline constexpr double kEpochsPerDay = 24.0;

/// The paper's rank^-3/2 click model over the served list, plus the
/// expected quality per click of a served list as a share of the ideal
/// (the m highest-quality pages in order).
class ClickModel {
 public:
  explicit ClickModel(const std::vector<double>& quality);
  /// Rank (0-based) a user clicks in a served list of `served` entries.
  size_t SampleRank(Rng& rng, size_t served) const;
  /// Σ_rank P(click at rank)·quality(page), over the ideal's value.
  double Qpc(const std::vector<uint32_t>& list) const;

 private:
  randrank::VisitLaw law_;
  std::vector<double> weight_;
  const std::vector<double>& quality_;
  double ideal_ = 1.0;
};

/// Structural check of one served list: min(m, n) entries, ids < n, no
/// duplicates.
bool ValidList(const std::vector<uint32_t>& list, size_t n);

/// Order-sensitive digest of served lists (FNV-1a over page ids).
class Digest {
 public:
  void Add(const std::vector<uint32_t>& list);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

/// Mean of per-query qpc values, in serving order.
struct QpcMean {
  double sum = 0.0;
  uint64_t n = 0;
  void Add(double q) {
    sum += q;
    ++n;
  }
  double value() const { return n > 0 ? sum / static_cast<double>(n) : 0.0; }
};

// --- the refresh (publish) cycle --------------------------------------------

/// Timings of one DrainVisits -> FoldVisits -> churn -> Update cycle.
struct RefreshTimes {
  double total_ms = 0.0;  // DrainVisits start to Update return, wall
  double cpu_ms = 0.0;    // the same span, the refreshing thread's CPU
  double drain_ms = 0.0;
  double fold_ms = 0.0;
  double churn_ms = 0.0;
  double update_ms = 0.0;
  double update_cpu_ms = 0.0;
  size_t births = 0;
  double changed_ratio = 0.0;  // traced runs only
  /// The program's own publish-phase spans for this Update, ms by phase
  /// ("publish/shards", ...); traced runs only.
  std::map<std::string, double> phase_ms;
  bool ok = true;
};

/// Pages whose popularity or zero flag differ from the last published state
/// kept in `last_pop`/`last_zero` (which are then refreshed).
double ChangedRatio(const randrank::ServingPageState& state,
                    std::vector<double>* last_pop,
                    std::vector<uint8_t>* last_zero);

/// Runs one refresh cycle. `deaths` is this epoch's churn (drawn once and
/// shared by every server of a run).
struct RefreshHooks {
  SpanLog* spans = nullptr;
  /// The server's TraceLog: its publish spans become children of the
  /// harness's server.update span.
  randrank::obs::TraceLog* trace = nullptr;
  int parent = SpanLog::kNoParent;
  std::vector<double>* last_pop = nullptr;
  std::vector<uint8_t>* last_zero = nullptr;
  /// Threads of this process that are not the refreshing one: their CPU is
  /// taken out of process CPU for update_cpu_ms.
  const std::vector<int>* other_tids = nullptr;
};
RefreshTimes Refresh(randrank::ShardedRankServer& server,
                     randrank::ServingPageState* state, Rng& fold_rng,
                     const std::vector<uint32_t>& deaths, int64_t epoch,
                     const RefreshHooks& hooks);


/// refresh_p50_ms / refresh_p90_ms: the refreshing thread's CPU time from
/// DrainVisits to Update returning (Update runs on the caller's thread), at
/// reference speed.
void ReportRefreshCpu(const std::vector<RefreshTimes>& refresh, double speed,
                      Report* report);
/// The same cycle in wall-clock time, which host steal inflates.
void ReportRefreshWall(const std::vector<RefreshTimes>& refresh,
                       Report* report);

/// Per-layer metrics of the refresh path, from the measured refresh cycles
/// and the harness spans around them: Update wall and CPU time, the
/// program's publish phases, feedback drain/fold, churn and the changed
/// share, plus self times of the refresh and update spans.
void ReportRefreshLayers(const std::vector<RefreshTimes>& refresh,
                         const std::vector<double>& churn_ms,
                         const SpanLog& spans, Report* report);

/// Per-family serving cost on a workload's corpus, for the workloads that
/// do not serve every family: one server per standard family over `state`,
/// ServeBatch of kBatch with the click recorded, serving-thread CPU per
/// query. Each Round serves one chunk of `chunk_cpu_ns` CPU per family, so
/// the families interleave and a change in the host's state lands on all of
/// them alike; NsPerQuery is the median over the recorded chunks.
class FamilySweep {
 public:
  FamilySweep(const randrank::ServingPageState& state, uint64_t seed);
  /// Serves one chunk per family; a recorded round also samples `speed`.
  void Round(uint64_t chunk_cpu_ns, bool record, SpeedProbe* speed);
  std::map<std::string, double> NsPerQuery() const;

 private:
  struct Family {
    std::string name;
    std::unique_ptr<randrank::ShardedRankServer> server;
    randrank::ShardedRankServer::Context ctx;
    Rng click_rng{0};
    std::vector<double> ns_per_query;
  };
  std::vector<double> quality_;  // clicks_ reads it
  ClickModel clicks_;
  randrank::QueryBatch batch_;
  std::vector<Family> families_;
};

/// Family slug of a policy label: "selective(r=0.10,k=2)" -> "selective".
std::string FamilySlug(const std::string& label);

// --- workloads --------------------------------------------------------------

void RunWire(const Args& args, Report* report);
void RunRefresh1m(const Args& args, Report* report);
void RunFamilies(const Args& args, Report* report);

/// Isolated timings of each layer on a workload's final corpus, through the
/// layers' public functions (traced runs only). `socket_probe` adds the
/// socket path, for workloads that have no socket of their own.
void RunLayerProbes(const Args& args, const randrank::ServingPageState& state,
                    bool socket_probe, Report* report);
/// The socket path (NetClient -> NetDaemon -> BatchQueue -> server) over a
/// server on `state`, paced like the wire workload, without a publisher.
void RunSocketProbe(const Args& args, const randrank::ServingPageState& state,
                    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
