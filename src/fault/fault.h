#ifndef RANDRANK_FAULT_FAULT_H_
#define RANDRANK_FAULT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace randrank {

namespace obs {
class Counter;
class MetricsRegistry;
}  // namespace obs

namespace fault {

/// Deterministic, seeded fault injection: named fault points compiled into
/// real sites (publish phases, the query serve path, the daemon's socket
/// writes), armed at runtime by a FaultPlan. With no injector installed a
/// site costs one acquire atomic load and a predicted branch; an armed
/// injector adds a single 64-bit mask test for points its plan does not
/// mention (bench/perf_fault prices both; a rule in
/// bench/baseline_smoke.json gates them).
///
/// Everything is deterministic given the plan: nth-hit schedules count hits
/// per rule, and probability schedules draw a splitmix64 coin keyed on
/// (plan seed, rule index, hit number) — re-running the same workload
/// against the same plan injects the same faults at the same places, which
/// is what makes chaos runs (examples/chaos_serve) reproducible and
/// publish-failure tests (tests/fault_test.cc) exact.

/// What an armed rule does at its site. Sites honor the actions that make
/// sense for them and ignore the rest (a kReset decision at a publish phase
/// is a no-op; a kFail at a socket write behaves like kReset).
enum class Action : uint8_t {
  kFail,          // inject an error (publish phases throw FaultInjectedError)
  kDelay,         // sleep delay_us at the site (slow shard / slow query)
  kPartialWrite,  // cap one socket write syscall at `bytes` bytes
  kReset,         // close the connection mid-stream (peer sees a reset/EOF)
};

/// One schedule entry of a FaultPlan. All constraints AND together: the
/// rule fires on a hit iff the hit index passes nth/every, the coin passes
/// prob, the site's epoch lies in [from_epoch, to_epoch], and fewer than
/// max_fires fires have happened.
struct Rule {
  std::string point;  // site name, e.g. "publish.shards", "net.write"
  Action action = Action::kFail;
  /// Fire on exactly the nth-th hit of this rule (1-based). 0 = no
  /// constraint. Combined with max_fires=0 this is a deterministic
  /// single-shot at hit `nth`.
  uint64_t nth = 0;
  /// Fire on every `every`-th hit (hit % every == 0). 0 = no constraint.
  uint64_t every = 0;
  /// Fire with this probability per hit (deterministic seeded coin).
  double prob = 1.0;
  /// Epoch-range gate, inclusive; 0 = unbounded on that side. Sites that
  /// have no epoch report epoch 0, so a from_epoch > 0 rule never fires on
  /// them.
  uint64_t from_epoch = 0;
  uint64_t to_epoch = 0;
  /// Stop after this many fires (0 = unlimited).
  uint64_t max_fires = 0;
  /// kDelay: microseconds to sleep at the site.
  uint64_t delay_us = 0;
  /// kPartialWrite: byte cap for the injected short write (0 selects 1).
  uint64_t bytes = 0;
};

/// A parseable schedule of fault rules. The text form (the daemon's
/// --fault-plan flag) is `;`-separated rules of `,`-separated key=value
/// fields:
///
///   point=publish.shards,action=fail,nth=2,max_fires=1;
///   point=net.write,action=reset,prob=0.05;seed=7
///
/// Keys: point (required per rule; one of kPoints below), action
/// (fail|delay|partial|reset), nth, every, prob, from_epoch, to_epoch,
/// max_fires, delay_us, bytes. A bare `seed=N` entry sets the plan seed.
/// Integer values are decimal digits that fit in 64 bits; prob is a finite
/// real in [0, 1] (both read by util/parse.h). Whitespace around tokens is
/// ignored.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<Rule> rules;

  /// Parses the text form above. Returns false (and a diagnostic in
  /// `error`, if non-null) on any unknown key, bad value, unknown point, or
  /// rule without a point; `out` is only written on success.
  static bool Parse(std::string_view spec, FaultPlan* out,
                    std::string* error = nullptr);
};

/// What a fired rule tells the site to do.
struct Decision {
  Action action = Action::kFail;
  uint64_t delay_us = 0;
  uint64_t bytes = 0;
};

/// Thrown by throwing sites (the publish phases) when a kFail rule fires.
/// The transactional publish in ShardedRankServer::Update catches it (and
/// any other exception) and rolls back to the previous snapshot.
class FaultInjectedError : public std::runtime_error {
 public:
  explicit FaultInjectedError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Compiled FaultPlan: per-rule atomic hit/fire counters, a point-name
/// index, and a 64-bit bloom mask so unarmed points reject in a few ns.
/// Thread-safe; one injector may be hit from the writer, serving threads,
/// and the event loop at once.
class FaultInjector {
 public:
  /// With `metrics` set, fires are exported as `fault/fired_total` plus one
  /// `fault/fired/<point>` counter per distinct point in the plan (all
  /// registered eagerly, so they are scrapeable before the first fire).
  explicit FaultInjector(FaultPlan plan,
                         obs::MetricsRegistry* metrics = nullptr);
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// One hit at a named site. Returns true and fills `out` when a rule
  /// fires. `point_hash` must be Hash(point) — sites precompute it at
  /// compile time via the Check() helper below.
  bool Evaluate(uint64_t point_hash, std::string_view point, uint64_t epoch,
                Decision* out);

  /// Fires of rules naming `point` so far (for assertions and accounting).
  uint64_t fired(std::string_view point) const;
  uint64_t fired_total() const {
    return fired_total_.load(std::memory_order_relaxed);
  }

  const FaultPlan& plan() const { return plan_; }

 private:
  struct RuleState;

  FaultPlan plan_;
  uint64_t mask_ = 0;  // bloom of Hash(point) for every armed point
  std::vector<RuleState> states_;
  std::atomic<uint64_t> fired_total_{0};
  obs::Counter* fired_ctr_ = nullptr;
};

/// FNV-1a, constexpr so sites hash their point name at compile time.
constexpr uint64_t Hash(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace internal {
/// The process-global injector (null = everything disabled). Installed by
/// ScopedFaultInjector / InstallFaultInjector; sites read it with acquire,
/// so an injector installed while other threads serve is fully constructed
/// when they see it (a plain load on x86). A site may see an
/// install/uninstall one hit late, which is fine for fault schedules.
extern std::atomic<FaultInjector*> g_injector;
}  // namespace internal

/// Installs (or, with null, uninstalls) the process-global injector. The
/// injector is borrowed and must outlive its installation. Returns the
/// previously installed injector.
FaultInjector* InstallFaultInjector(FaultInjector* injector);

/// The site primitive: near-zero when no injector is installed. `point`
/// must be a string literal (its hash folds at compile time).
inline bool Check(std::string_view point, uint64_t point_hash, uint64_t epoch,
                  Decision* out) {
  FaultInjector* injector =
      internal::g_injector.load(std::memory_order_acquire);
  if (injector == nullptr) return false;
  return injector->Evaluate(point_hash, point, epoch, out);
}

/// Sleeps out a kDelay decision (no-op for other actions).
void ApplyDelay(const Decision& decision);

/// Throwing site for abortable phases: sleeps on kDelay, throws
/// FaultInjectedError on kFail, ignores socket-only actions.
inline void CheckAbortable(std::string_view point, uint64_t point_hash,
                           uint64_t epoch);
void CheckAbortableSlow(std::string_view point, uint64_t epoch,
                        const Decision& decision);
inline void CheckAbortable(std::string_view point, uint64_t point_hash,
                           uint64_t epoch) {
  Decision decision;
  if (Check(point, point_hash, epoch, &decision)) {
    CheckAbortableSlow(point, epoch, decision);
  }
}

/// Installs `injector` for the enclosing scope and restores the previous
/// installation on exit — the test/harness idiom, exception-safe.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(FaultInjector* injector)
      : previous_(InstallFaultInjector(injector)) {}
  ~ScopedFaultInjector() { InstallFaultInjector(previous_); }
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

 private:
  FaultInjector* previous_;
};

/// Canonical point names, so sites and plans cannot drift apart on
/// spelling. Names are single registry path segments (dots, not slashes):
/// the per-point fire counters live at `fault/fired/<point>`.
inline constexpr std::string_view kPublishShards = "publish.shards";
inline constexpr std::string_view kPublishMerge = "publish.merge";
inline constexpr std::string_view kPublishEpochState = "publish.epoch_state";
inline constexpr std::string_view kPublishRcu = "publish.rcu_publish";
inline constexpr std::string_view kServeQuery = "serve.query";
inline constexpr std::string_view kNetWrite = "net.write";

/// Every point a site checks. FaultPlan::Parse rejects any other name, so a
/// misspelt point fails loudly instead of arming nothing.
inline constexpr std::array<std::string_view, 6> kPoints = {
    kPublishShards, kPublishMerge, kPublishEpochState,
    kPublishRcu,    kServeQuery,   kNetWrite};

}  // namespace fault
}  // namespace randrank

#endif  // RANDRANK_FAULT_FAULT_H_
