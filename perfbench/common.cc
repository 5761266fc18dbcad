// Shared harness pieces: clocks, statistics, host record, spans, the warm
// corpus, the click model, output checks and the refresh cycle.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "core/policy/policy_factory.h"
#include "harness.h"

namespace perfbench {

using namespace randrank;

uint64_t DeriveSeed(uint64_t seed, const std::string& purpose) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : purpose) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  uint64_t state = seed ^ h;
  return SplitMix64(&state);
}

void Report::Print() const {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      os << m.value;
    } else {
      os << "null";  // JSON has no NaN or infinity
    }
    os << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- clocks and statistics --------------------------------------------------

namespace {
uint64_t ClockNs(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}
}  // namespace

double NowSec() { return static_cast<double>(NowNs()) * 1e-9; }
uint64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
uint64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }
uint64_t ProcessCpuNs() { return ClockNs(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t TidCpuNs(int tid) {
  // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
  // returns): CPUCLOCK_SCHED | CPUCLOCK_PERTHREAD_MASK over ~tid.
  const clockid_t id =
      static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6);
  return ClockNs(id);
}

int CurrentTid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::vector<int> ThreadIds() {
  std::vector<int> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      tids.push_back(std::atoi(e->d_name));
    }
  }
  ::closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
std::atomic<int> g_pins_ok{0};
std::atomic<int> g_pins_failed{0};
}  // namespace

const std::vector<int>& AllowedCpus() {
  // Read once, before any thread is pinned: the process's own vCPU set.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) != 0) return out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
  }();
  return cpus;
}

bool PinThread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const bool ok = ::sched_setaffinity(tid, sizeof(set), &set) == 0;
  (ok ? g_pins_ok : g_pins_failed).fetch_add(1);
  return ok;
}

bool AllPinsHeld() { return g_pins_ok.load() > 0 && g_pins_failed.load() == 0; }

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice; guest
    // time is already counted in user.
    if (field < 8) t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

SpeedProbe::SpeedProbe() : buf_(size_t{1} << 22, 1) {}

void SpeedProbe::Sample() {
  auto loop = [this](uint64_t mask, int iters) {
    const uint64_t t0 = ThreadCpuNs();
    for (int i = 0; i < iters; ++i) {
      x_ += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x_;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      sink_ += buf_[z & mask] + (z >> 60);
    }
    return static_cast<double>(ThreadCpuNs() - t0) / iters;
  };
  const double l1 = loop((1u << 12) - 1, 200000);  // 16 KiB
  const double l2 = loop((1u << 18) - 1, 200000);  // 1 MiB
  const double l3 = loop((1u << 22) - 1, 100000);  // 16 MiB
  buf_[sink_ & 7] = static_cast<uint32_t>(sink_);  // keep the loops live
  samples_.push_back(std::cbrt(l1 * l2 * l3));
}

// --- spans ------------------------------------------------------------------

int SpanLog::Begin(const char* name, int parent, uint64_t request) {
  spans_.push_back({name, NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

int SpanLog::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                 int parent) {
  spans_.push_back({name, start_ns, end_ns, parent, 0});
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double> SpanLog::MedianSelfMs() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent && s.end_ns >= s.start_ns) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, std::vector<double>> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never ended
    self[s.name].push_back(
        (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) * 1e-6);
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : self) out[name] = Median(std::move(v));
  return out;
}

void SpanLog::Write(const std::string& path, const std::string& thread) const {
  std::ofstream out(path, std::ios::app);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"thread\":\"" << thread << "\",\"id\":" << i
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent;
    if (s.request != 0) out << ",\"request\":" << s.request;
    out << "}\n";
  }
}

void WriteSpans(const Args& args, const SpanLog& log, const std::string& thread,
                bool truncate) {
  ::mkdir(".bench_build", 0755);
  ::mkdir(".bench_build/traces", 0755);
  const std::string path =
      ".bench_build/traces/" + args.workload + ".spans.jsonl";
  if (truncate) std::ofstream(path, std::ios::trunc);
  log.Write(path, thread);
}

// --- corpus, clicks, checks -------------------------------------------------

CommunityParams Community(size_t n) {
  CommunityParams c = CommunityParams::Default();
  c.n = n;
  return c;
}

ServingPageState MakeWarmCorpus(const CommunityParams& c, uint64_t seed) {
  Rng rng(DeriveSeed(seed, "corpus"));
  ServingPageState state = MakeServingPageState(c, rng);
  const double users = static_cast<double>(state.users);
  const double ages_mean_days = c.lifetime_days;
  // Awareness grows with age at a rate set by quality: the share of users
  // who know a page of quality q after a days is 1 - exp(-a * q * kRate).
  constexpr double kRate = 2.0;
  constexpr double kNewbornShare = 0.03;
  // The highest-quality pages are long known: in the steady state they leave
  // the pool within days of birth and are soon known to nearly every user.
  // Were one of them a newborn or a few days old, qpc would swing by tens of
  // percent with the corpus seed.
  constexpr size_t kKnownTop = 100;
  constexpr double kKnownMinAgeDays = 30.0;
  std::vector<double> sorted = state.quality;
  const size_t top = std::min(kKnownTop, sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<ptrdiff_t>(top),
                   sorted.end(), std::greater<double>());
  const double known_quality = sorted[top];
  for (size_t p = 0; p < state.n(); ++p) {
    const bool newborn = rng.NextBernoulli(kNewbornShare);
    if (newborn && state.quality[p] < known_quality) {
      state.birth_step[p] = 0;  // zero-awareness newborn
      continue;
    }
    double age_days = rng.NextExponential(1.0 / ages_mean_days);
    if (state.quality[p] >= known_quality) age_days += kKnownMinAgeDays;
    const double share = 1.0 - std::exp(-age_days * state.quality[p] * kRate);
    const auto aware = static_cast<uint32_t>(
        std::clamp(std::llround(users * share), 1LL,
                   static_cast<long long>(state.users)));
    state.aware[p] = aware;
    state.popularity[p] = state.quality[p] * aware / users;
    state.zero_awareness[p] = 0;
    state.birth_step[p] = -static_cast<int64_t>(age_days * kEpochsPerDay);
  }
  return state;
}

ClickModel::ClickModel(const std::vector<double>& quality)
    : law_(kTopM, 1.0, 1.5), quality_(quality) {
  std::vector<double> top(quality);
  const size_t m = std::min(kTopM, top.size());
  std::partial_sort(top.begin(), top.begin() + static_cast<ptrdiff_t>(m),
                    top.end(), std::greater<double>());
  weight_.resize(kTopM);
  double ideal = 0.0;
  for (size_t r = 0; r < kTopM; ++r) {
    weight_[r] = law_.RankProbability(r + 1);
    if (r < m) ideal += weight_[r] * top[r];
  }
  ideal_ = ideal > 0.0 ? ideal : 1.0;
}

size_t ClickModel::SampleRank(Rng& rng, size_t served) const {
  const size_t rank = law_.SampleRank(rng);  // 1-based, <= kTopM
  return std::min(rank, served) - 1;
}

double ClickModel::Qpc(const std::vector<uint32_t>& list) const {
  double q = 0.0;
  const size_t m = std::min(list.size(), kTopM);
  for (size_t r = 0; r < m; ++r) q += weight_[r] * quality_[list[r]];
  return q / ideal_;
}

bool ValidList(const std::vector<uint32_t>& list, size_t n) {
  if (list.size() != std::min(kTopM, n)) return false;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] >= n) return false;
    for (size_t j = 0; j < i; ++j) {
      if (list[j] == list[i]) return false;
    }
  }
  return true;
}

void Digest::Add(const std::vector<uint32_t>& list) {
  for (const uint32_t id : list) {
    for (int b = 0; b < 4; ++b) {
      h_ ^= (id >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  h_ ^= 0xff;
  h_ *= 1099511628211ULL;
}

// --- refresh cycle ----------------------------------------------------------

double ChangedRatio(const ServingPageState& state, std::vector<double>* last_pop,
                    std::vector<uint8_t>* last_zero) {
  size_t changed = 0;
  for (size_t p = 0; p < state.n(); ++p) {
    if (state.popularity[p] != (*last_pop)[p] ||
        state.zero_awareness[p] != (*last_zero)[p]) {
      ++changed;
    }
  }
  *last_pop = state.popularity;
  *last_zero = state.zero_awareness;
  return static_cast<double>(changed) / static_cast<double>(state.n());
}

RefreshTimes Refresh(ShardedRankServer& server, ServingPageState* state,
                     Rng& fold_rng, const std::vector<uint32_t>& deaths,
                     int64_t epoch, const RefreshHooks& hooks) {
  RefreshTimes t;
  SpanLog* spans = hooks.spans;
  const int cycle = spans ? spans->Begin("refresh", hooks.parent) : 0;
  const uint64_t thread_cpu0 = ThreadCpuNs();
  const uint64_t t0 = NowNs();
  const int s_drain = spans ? spans->Begin("feedback.drain", cycle) : 0;
  const std::vector<uint64_t> visits = server.DrainVisits();
  if (spans) spans->End(s_drain);
  const uint64_t t1 = NowNs();
  const int s_fold = spans ? spans->Begin("feedback.fold", cycle) : 0;
  FoldVisits(visits, state, fold_rng);
  if (spans) spans->End(s_fold);
  const uint64_t t2 = NowNs();
  const int s_churn = spans ? spans->Begin("lifecycle.churn", cycle) : 0;
  PageLifecycle::ApplyDeaths(deaths, epoch, state);
  if (spans) spans->End(s_churn);
  const uint64_t t3 = NowNs();
  auto other_cpu = [&] {
    uint64_t sum = 0;
    if (hooks.other_tids != nullptr) {
      for (const int tid : *hooks.other_tids) sum += TidCpuNs(tid);
    }
    return sum;
  };
  const uint64_t other0 = other_cpu();
  const uint64_t cpu0 = ProcessCpuNs();
  const int s_update = spans ? spans->Begin("server.update", cycle) : 0;
  t.ok = server.Update(state->popularity, state->zero_awareness,
                       state->birth_step);
  if (spans) spans->End(s_update);
  const uint64_t cpu1 = ProcessCpuNs();
  if (hooks.trace != nullptr) {
    // The phases run back to back inside Update; laid end to end from its
    // start they leave the unattributed rest as the update span's self time.
    uint64_t at = spans ? t3 : 0;
    for (const std::string& line : hooks.trace->Drain()) {
      const size_t b = line.find("\"bench\":\"span/publish/");
      const size_t d = line.find("\"dur_us\":");
      if (b == std::string::npos || d == std::string::npos) continue;
      const size_t name0 = b + 14;
      const std::string name =
          line.substr(name0, line.find('"', name0) - name0);
      if (name == "publish/total") continue;
      const double ms = std::strtod(line.c_str() + d + 9, nullptr) * 1e-3;
      t.phase_ms[name] = ms;
      if (spans) {
        static const std::map<std::string, std::string> kNames = {
            {"publish/shards", "publish.shards"},
            {"publish/merge", "publish.merge"},
            {"publish/epoch_state", "publish.epoch_state"},
            {"publish/policy_swap", "publish.policy_swap"},
            {"publish/rcu_publish", "publish.rcu_publish"},
            {"publish/aborted", "publish.aborted"}};
        const auto it = kNames.find(name);
        if (it == kNames.end()) continue;
        const auto dur = static_cast<uint64_t>(ms * 1e6);
        spans->Add(it->second.c_str(), at, at + dur, s_update);
        at += dur;
      }
    }
  }
  const uint64_t other1 = other_cpu();
  const uint64_t t4 = NowNs();
  t.cpu_ms = static_cast<double>(ThreadCpuNs() - thread_cpu0) * 1e-6;
  if (spans) spans->End(cycle);
  t.drain_ms = static_cast<double>(t1 - t0) * 1e-6;
  t.fold_ms = static_cast<double>(t2 - t1) * 1e-6;
  t.churn_ms = static_cast<double>(t3 - t2) * 1e-6;
  t.update_ms = static_cast<double>(t4 - t3) * 1e-6;
  t.total_ms = static_cast<double>(t4 - t0) * 1e-6;
  const double other = static_cast<double>(other1 - other0);
  t.update_cpu_ms =
      std::max(0.0, static_cast<double>(cpu1 - cpu0) - other) * 1e-6;
  t.births = deaths.size();
  if (hooks.last_pop != nullptr) {
    t.changed_ratio = ChangedRatio(*state, hooks.last_pop, hooks.last_zero);
  }
  return t;
}

void ReportRefreshCpu(const std::vector<RefreshTimes>& refresh, double speed,
                      Report* report) {
  std::vector<double> cpu;
  for (const RefreshTimes& t : refresh) cpu.push_back(t.cpu_ms);
  report->Set("refresh_p50_ms", ToRef(Quantile(cpu, 0.5), speed), "ref_ms");
  report->Set("refresh_p90_ms", ToRef(Quantile(cpu, 0.9), speed), "ref_ms");
}

void ReportRefreshWall(const std::vector<RefreshTimes>& refresh,
                       Report* report) {
  std::vector<double> wall;
  for (const RefreshTimes& t : refresh) wall.push_back(t.total_ms);
  report->Set("bench.refresh_wall_ms.p50", Quantile(wall, 0.5), "ms");
  report->Set("bench.refresh_wall_ms.p90", Quantile(wall, 0.9), "ms");
}

void ReportRefreshLayers(const std::vector<RefreshTimes>& refresh,
                         const std::vector<double>& churn_ms,
                         const SpanLog& spans, Report* report) {
  std::vector<double> update, update_cpu, drain, fold, changed, births;
  std::map<std::string, std::vector<double>> phases;
  for (const RefreshTimes& t : refresh) {
    update.push_back(t.update_ms);
    update_cpu.push_back(t.update_cpu_ms);
    drain.push_back(t.drain_ms);
    fold.push_back(t.fold_ms);
    changed.push_back(t.changed_ratio);
    births.push_back(static_cast<double>(t.births));
    for (const auto& [name, ms] : t.phase_ms) phases[name].push_back(ms);
  }
  report->Set("serve.server.update_ms.p50", Quantile(update, 0.5), "ms");
  report->Set("serve.server.update_ms.p90", Quantile(update, 0.9), "ms");
  report->Set("serve.server.update_ms.n", static_cast<double>(update.size()),
              "count");
  report->Set("serve.server.update_cpu_ms", Median(update_cpu), "ms");
  report->Set("serve.feedback.drain_ms", Median(drain), "ms");
  report->Set("serve.feedback.fold_ms", Median(fold), "ms");
  report->Set("serve.publish.changed_ratio", Median(changed), "ratio");
  report->Set("exp.lifecycle.churn_ms", Median(churn_ms), "ms");
  report->Set("exp.lifecycle.births", Mean(births), "count");
  for (const char* phase : {"shards", "merge", "epoch_state", "rcu_publish"}) {
    report->Set(std::string("serve.publish.phase_ms.") + phase,
                Median(phases[std::string("publish/") + phase]), "ms");
  }
  const std::map<std::string, double> self = spans.MedianSelfMs();
  for (const char* name : {"server.update", "refresh"}) {
    const auto it = self.find(name);
    report->Set(std::string("bench.self_ms.") + name,
                it == self.end() ? 0.0 : it->second, "ms");
  }
}

std::string FamilySlug(const std::string& label) {
  return label.substr(0, label.find('('));
}

FamilySweep::FamilySweep(const ServingPageState& state, uint64_t seed)
    : quality_(state.quality), clicks_(quality_), batch_(kTopM, kBatch) {
  for (const auto& policy : StandardPolicyFamilies()) {
    Family f;
    f.name = FamilySlug(policy->Label());
    ServeOptions sopts;
    sopts.shards = kShards;
    sopts.seed = DeriveSeed(seed, "sweep-server/" + f.name);
    f.server = std::make_unique<ShardedRankServer>(policy, state.n(), sopts);
    f.server->Update(state.popularity, state.zero_awareness, state.birth_step);
    f.ctx = f.server->CreateContext();
    f.click_rng = Rng(DeriveSeed(seed, "sweep-clicks/" + f.name));
    families_.push_back(std::move(f));
  }
}

void FamilySweep::Round(uint64_t chunk_cpu_ns, bool record,
                        SpeedProbe* speed) {
  if (record) speed->Sample();
  for (Family& f : families_) {
    const uint64_t c0 = ThreadCpuNs();
    uint64_t c1 = c0;
    size_t queries = 0;
    while (c1 - c0 < chunk_cpu_ns) {
      for (int b = 0; b < 16; ++b) {
        f.server->ServeBatch(f.ctx, &batch_);
        for (const auto& list : batch_.results) {
          if (!list.empty()) {
            f.server->RecordVisit(
                f.ctx, list[clicks_.SampleRank(f.click_rng, list.size())]);
          }
        }
      }
      queries += 16 * kBatch;
      c1 = ThreadCpuNs();
    }
    if (record) {
      f.ns_per_query.push_back(static_cast<double>(c1 - c0) /
                               static_cast<double>(queries));
    }
  }
}

std::map<std::string, double> FamilySweep::NsPerQuery() const {
  std::map<std::string, double> out;
  for (const Family& f : families_) out[f.name] = Median(f.ns_per_query);
  return out;
}

}  // namespace perfbench
