#ifndef RANDRANK_OBS_TRACE_H_
#define RANDRANK_OBS_TRACE_H_

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace randrank::obs {

struct TraceOptions {
  /// Per-query span sampling: a serving context emits a span for one query
  /// in every `sample_every` it serves (deterministic per-context stride, no
  /// randomness on the hot path). 0 disables query spans entirely.
  /// Epoch-publish phase spans are never sampled — publishes are rare and
  /// each one is operationally interesting.
  size_t sample_every = 64;
};

/// Sampled trace-span sink emitting one JSONL line per span, in the repo's
/// bench JSONL convention (first key "bench", value "span/<name>", then
/// numeric fields and string labels; bench_common.h's ValidateJsonLine
/// accepts every emitted line, so spans ride the same feed, validators, and
/// tooling as the perf records):
///
///   {"bench":"span/serve/query","dur_us":3.1,"m":20,...,"family":"selective"}
///
/// The serve layer emits two span families: per-query spans (service time,
/// policy family — sampled) and epoch-publish
/// phase spans (partition, deterministic sort, BuildEpochState, policy swap,
/// RCU publish — always emitted). The network daemon adds sampled per-request
/// spans (`net/request`: decode to reply staged).
///
/// Thread-safe: emission takes a mutex, which is fine because spans are
/// sampled (or rare) by design — the hot path's cost is the sampling
/// counter, not the lock. When the buffer is full new spans are dropped and
/// counted, never blocking a serving thread.
class TraceLog {
 public:
  using Field = std::pair<const char*, double>;
  using Label = std::pair<const char*, std::string>;

  /// Spans buffered before new ones are dropped (and counted in dropped());
  /// Drain() or WriteTo() empties the buffer.
  static constexpr size_t kCapacity = 1 << 16;

  explicit TraceLog(TraceOptions options = {});

  /// Formats and buffers one span line. `dur_us` is the span duration in
  /// microseconds; `fields` are numeric attributes, `labels` string ones.
  void EmitSpan(const std::string& name, double dur_us,
                std::initializer_list<Field> fields,
                std::initializer_list<Label> labels = {});

  /// Returns the buffered span lines and clears the buffer.
  std::vector<std::string> Drain();
  /// Writes (and drains) the buffered spans, one line each.
  void WriteTo(std::ostream& os);

  uint64_t emitted() const;
  uint64_t dropped() const;
  size_t sample_every() const { return opts_.sample_every; }

 private:
  const TraceOptions opts_;
  mutable std::mutex mutex_;
  std::vector<std::string> lines_;
  uint64_t emitted_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace randrank::obs

#endif  // RANDRANK_OBS_TRACE_H_
