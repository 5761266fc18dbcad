#include "fault/fault.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>

#include "obs/metrics.h"

namespace randrank::fault {

namespace internal {
std::atomic<FaultInjector*> g_injector{nullptr};
}  // namespace internal

FaultInjector* InstallFaultInjector(FaultInjector* injector) {
  return internal::g_injector.exchange(injector, std::memory_order_acq_rel);
}

void ApplyDelay(const Decision& decision) {
  if (decision.action == Action::kDelay && decision.delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(decision.delay_us));
  }
}

void CheckAbortableSlow(std::string_view point, uint64_t /*epoch*/,
                        const Decision& decision) {
  if (decision.action == Action::kDelay) {
    ApplyDelay(decision);
    return;
  }
  if (decision.action == Action::kFail) {
    throw FaultInjectedError("fault injected at " + std::string(point));
  }
  // Socket-only actions have no meaning at an abortable phase; ignore.
}

// ---------------------------------------------------------------------------
// Plan parsing
// ---------------------------------------------------------------------------

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\n' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\n' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseProb(std::string_view s, double* out) {
  // Probabilities are written as plain decimals ("0.05", "1"); parse by
  // hand so the accepted grammar is exact and locale-independent.
  if (s.empty()) return false;
  const size_t dot = s.find('.');
  uint64_t whole = 0;
  if (!ParseU64(s.substr(0, dot == std::string_view::npos ? s.size() : dot),
                &whole)) {
    return false;
  }
  double value = static_cast<double>(whole);
  if (dot != std::string_view::npos) {
    const std::string_view frac = s.substr(dot + 1);
    if (frac.empty()) return false;
    uint64_t digits = 0;
    if (!ParseU64(frac, &digits)) return false;
    double scale = 1.0;
    for (size_t i = 0; i < frac.size(); ++i) scale *= 10.0;
    value += static_cast<double>(digits) / scale;
  }
  if (value < 0.0 || value > 1.0) return false;
  *out = value;
  return true;
}

bool ParseAction(std::string_view s, Action* out) {
  if (s == "fail") *out = Action::kFail;
  else if (s == "delay") *out = Action::kDelay;
  else if (s == "partial") *out = Action::kPartialWrite;
  else if (s == "reset") *out = Action::kReset;
  else return false;
  return true;
}

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

bool IsPoint(std::string_view name) {
  return std::find(kPoints.begin(), kPoints.end(), name) != kPoints.end();
}

std::string PointList() {
  std::string list;
  for (const std::string_view point : kPoints) {
    if (!list.empty()) list += ", ";
    list += point;
  }
  return list;
}

}  // namespace

bool FaultPlan::Parse(std::string_view spec, FaultPlan* out,
                      std::string* error) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t semi = spec.find(';', pos);
    std::string_view entry = Trim(
        spec.substr(pos, semi == std::string_view::npos ? spec.size() - pos
                                                        : semi - pos));
    pos = semi == std::string_view::npos ? spec.size() + 1 : semi + 1;
    if (entry.empty()) continue;

    Rule rule;
    bool have_point = false;
    bool is_seed_entry = false;
    size_t fpos = 0;
    while (fpos <= entry.size()) {
      const size_t comma = entry.find(',', fpos);
      const std::string_view field = Trim(entry.substr(
          fpos, comma == std::string_view::npos ? entry.size() - fpos
                                                : comma - fpos));
      fpos = comma == std::string_view::npos ? entry.size() + 1 : comma + 1;
      if (field.empty()) continue;
      const size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        return Fail(error, "fault plan: field without '=': \"" +
                               std::string(field) + "\"");
      }
      const std::string_view key = Trim(field.substr(0, eq));
      const std::string_view value = Trim(field.substr(eq + 1));
      bool ok = true;
      if (key == "seed") {
        ok = ParseU64(value, &plan.seed);
        is_seed_entry = true;
      } else if (key == "point") {
        if (!value.empty() && !IsPoint(value)) {
          return Fail(error, "fault plan: unknown point \"" +
                                 std::string(value) + "\" (valid: " +
                                 PointList() + ")");
        }
        rule.point = std::string(value);
        have_point = !rule.point.empty();
        ok = have_point;
      } else if (key == "action") {
        ok = ParseAction(value, &rule.action);
      } else if (key == "nth") {
        ok = ParseU64(value, &rule.nth);
      } else if (key == "every") {
        ok = ParseU64(value, &rule.every);
      } else if (key == "prob") {
        ok = ParseProb(value, &rule.prob);
      } else if (key == "from_epoch") {
        ok = ParseU64(value, &rule.from_epoch);
      } else if (key == "to_epoch") {
        ok = ParseU64(value, &rule.to_epoch);
      } else if (key == "max_fires") {
        ok = ParseU64(value, &rule.max_fires);
      } else if (key == "delay_us") {
        ok = ParseU64(value, &rule.delay_us);
      } else if (key == "bytes") {
        ok = ParseU64(value, &rule.bytes);
      } else {
        return Fail(error,
                    "fault plan: unknown key \"" + std::string(key) + "\"");
      }
      if (!ok) {
        return Fail(error, "fault plan: bad value for \"" + std::string(key) +
                               "\": \"" + std::string(value) + "\"");
      }
    }
    if (is_seed_entry && !have_point) continue;  // bare seed=N entry
    if (!have_point) {
      return Fail(error, "fault plan: rule without point: \"" +
                             std::string(entry) + "\"");
    }
    plan.rules.push_back(std::move(rule));
  }
  *out = std::move(plan);
  return true;
}

// ---------------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------------

struct FaultInjector::RuleState {
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
  obs::Counter* fired_ctr = nullptr;
};

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic coin for (plan seed, rule index, hit number) in [0, 1).
double Coin(uint64_t seed, size_t rule_idx, uint64_t hit) {
  const uint64_t bits = SplitMix64(
      seed ^ SplitMix64(static_cast<uint64_t>(rule_idx) + 1) ^ (hit * 3));
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, obs::MetricsRegistry* metrics)
    : plan_(std::move(plan)), states_(plan_.rules.size()) {
  if (metrics != nullptr) {
    fired_ctr_ = &metrics->GetCounter("fault/fired_total");
  }
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    mask_ |= 1ull << (Hash(plan_.rules[i].point) & 63);
    if (metrics != nullptr) {
      states_[i].fired_ctr =
          &metrics->GetCounter("fault/fired/" + plan_.rules[i].point);
    }
  }
}

FaultInjector::~FaultInjector() = default;

bool FaultInjector::Evaluate(uint64_t point_hash, std::string_view point,
                             uint64_t epoch, Decision* out) {
  // Armed-but-miss fast path: one mask test rejects points the plan never
  // mentions (modulo 1-in-64 hash aliasing, which just falls through to the
  // exact name compare below).
  if ((mask_ & (1ull << (point_hash & 63))) == 0) return false;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const Rule& rule = plan_.rules[i];
    if (rule.point != point) continue;
    RuleState& state = states_[i];
    const uint64_t hit = state.hits.fetch_add(1, std::memory_order_relaxed) + 1;
    if (rule.from_epoch > 0 && epoch < rule.from_epoch) continue;
    if (rule.to_epoch > 0 && epoch > rule.to_epoch) continue;
    if (rule.nth > 0 && hit != rule.nth) continue;
    if (rule.every > 0 && hit % rule.every != 0) continue;
    if (rule.prob < 1.0 && Coin(plan_.seed, i, hit) >= rule.prob) continue;
    if (rule.max_fires > 0 &&
        state.fires.load(std::memory_order_relaxed) >= rule.max_fires) {
      continue;
    }
    state.fires.fetch_add(1, std::memory_order_relaxed);
    fired_total_.fetch_add(1, std::memory_order_relaxed);
    if (fired_ctr_ != nullptr) fired_ctr_->Add();
    if (state.fired_ctr != nullptr) state.fired_ctr->Add();
    out->action = rule.action;
    out->delay_us = rule.delay_us;
    out->bytes = rule.bytes;
    return true;
  }
  return false;
}

uint64_t FaultInjector::fired(std::string_view point) const {
  uint64_t total = 0;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    if (plan_.rules[i].point == point) {
      total += states_[i].fires.load(std::memory_order_relaxed);
    }
  }
  return total;
}

}  // namespace randrank::fault
