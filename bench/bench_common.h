#ifndef RANDRANK_BENCH_BENCH_COMMON_H_
#define RANDRANK_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/query_workload.h"
#include "util/rng.h"
#include "util/table.h"

namespace randrank::bench {

/// Prints a figure banner with the paper's qualitative expectation, so the
/// bench output is self-describing when captured to a log.
inline void PrintBanner(const std::string& figure, const std::string& what,
                        const std::string& expectation) {
  std::cout << "\n=== " << figure << ": " << what << " ===\n"
            << "paper expectation: " << expectation << "\n\n";
}

/// Strips "--smoke" from argv, which benchmark::Initialize would reject as an
/// unknown flag, and returns whether it was given (the CI-sized run).
inline bool TakeSmokeFlag(int* argc, char** argv) {
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  return smoke;
}

/// A synthetic serving corpus in the shape ShardedRankServer::Update takes.
struct Corpus {
  std::vector<double> popularity;
  std::vector<uint8_t> zero;
  std::vector<int64_t> birth;
};

/// `n` pages: each is zero-awareness (popularity 0) with probability
/// `zero_fraction`, else has popularity uniform in [0, 0.4).
inline Corpus MakeCorpus(size_t n, double zero_fraction, uint64_t seed) {
  Corpus c;
  Rng rng(seed);
  c.popularity.resize(n);
  c.zero.resize(n);
  c.birth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextBernoulli(zero_fraction);
    c.zero[i] = z;
    c.popularity[i] = z ? 0.0 : rng.NextDouble() * 0.4;
    c.birth[i] = static_cast<int64_t>(i % 4096);
  }
  return c;
}

/// One arm of a PairedAblation: its best rep, and (for arms after the bare
/// reference) its best QPS ratio to the reference rep of the same round.
struct AblationArm {
  WorkloadResult best;
  double qps_vs_off = 0.0;
};

/// Overhead ablation over alternating reps: each of `reps` rounds runs
/// measure(0), the bare reference, then measure(1) .. measure(arms - 1) back
/// to back. Adjacent runs see near-identical machine conditions, so an arm's
/// best ratio to its own round's reference is the noise-floor estimate of
/// its overhead: a shared core's steal-time bursts depress whole rounds at a
/// time, which comparing each arm's best rep across rounds would not cancel.
template <typename Measure>
std::vector<AblationArm> PairedAblation(size_t arms, size_t reps,
                                        const Measure& measure) {
  std::vector<AblationArm> out(arms);
  for (size_t rep = 0; rep < reps; ++rep) {
    double reference_qps = 0.0;
    for (size_t arm = 0; arm < arms; ++arm) {
      const WorkloadResult res = measure(arm);
      if (res.qps > out[arm].best.qps) out[arm].best = res;
      if (arm == 0) {
        reference_qps = res.qps;
      } else if (reference_qps > 0.0) {
        out[arm].qps_vs_off =
            std::max(out[arm].qps_vs_off, res.qps / reference_qps);
      }
    }
  }
  return out;
}

/// Registers a no-op google-benchmark entry per data point that carries the
/// point's metrics as user counters. The expensive sweeps run once, in
/// parallel, before registration; the benchmark pass then reports the cached
/// values in the standard benchmark table format.
inline void RegisterCounterBenchmark(
    const std::string& name, const std::map<std::string, double>& counters) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [counters](benchmark::State& state) {
                                 for (auto _ : state) {
                                 }
                                 for (const auto& [key, value] : counters) {
                                   state.counters[key] = value;
                                 }
                               })
      ->Iterations(1);
}

/// Formats one machine-readable JSON object line (JSONL) so perf benches can
/// be tracked across commits without parsing the human-oriented tables:
///   {"bench":"<name>","qps":12345.6,...}
/// Keys come from the map (sorted, so output is diff-stable); values are
/// printed with max_digits10 precision so doubles round-trip exactly. Note a
/// NaN/Inf value renders as "nan"/"inf", which is NOT valid JSON — that is
/// deliberate: ValidateJsonLine rejects it, so a bench that computed garbage
/// fails loudly instead of feeding the perf trajectory a poisoned point.
inline std::string FormatJsonLine(const std::string& name,
                                  const std::map<std::string, double>& fields) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"bench\":\"" << name << '"';
  for (const auto& [key, value] : fields) {
    os << ",\"" << key << "\":" << value;
  }
  os << '}';
  return os.str();
}

/// Structural check of one JSONL record as this file emits them: a flat
/// object of string keys and finite numeric values, first key "bench" with a
/// non-empty string value. Catches the crash modes CI must not ignore —
/// truncated lines from a dying process, NaN/Inf metrics, empty names.
inline bool ValidateJsonLine(const std::string& line, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error) *error = why + " in: " + line;
    return false;
  };
  size_t i = 0;
  const auto parse_string = [&](std::string* out) {
    if (i >= line.size() || line[i] != '"') return false;
    const size_t close = line.find('"', ++i);
    if (close == std::string::npos) return false;
    if (out) *out = line.substr(i, close - i);
    i = close + 1;
    return true;
  };
  if (line.empty() || line[i++] != '{') return fail("missing '{'");
  bool first = true;
  while (true) {
    std::string key;
    if (!parse_string(&key)) return fail("bad key");
    if (key.empty()) return fail("empty key");
    if (first && key != "bench") return fail("first key must be \"bench\"");
    if (i >= line.size() || line[i++] != ':') return fail("missing ':'");
    if (i < line.size() && line[i] == '"') {
      std::string value;
      if (!parse_string(&value)) return fail("bad string value");
      if (first && value.empty()) return fail("empty bench name");
    } else {
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + i, &end);
      if (end == line.c_str() + i) return fail("bad number");
      if (!(value == value) ||
          value > std::numeric_limits<double>::max() ||
          value < -std::numeric_limits<double>::max()) {
        return fail("non-finite value for \"" + key + "\"");
      }
      i = static_cast<size_t>(end - line.c_str());
    }
    first = false;
    if (i < line.size() && line[i] == ',') {
      ++i;
      continue;
    }
    break;
  }
  if (i >= line.size() || line[i++] != '}') return fail("missing '}'");
  if (i != line.size()) return fail("trailing characters");
  return true;
}

/// Collects every JSONL line a bench emits so main() can refuse to exit 0
/// when the machine-readable output is empty or malformed (a crashed sweep
/// must not produce a green CI run with no perf artifact).
class JsonlSink {
 public:
  void Emit(std::ostream& os, const std::string& name,
            const std::map<std::string, double>& fields) {
    std::string line = FormatJsonLine(name, fields);
    os << line << '\n';
    lines_.push_back(std::move(line));
  }

  size_t size() const { return lines_.size(); }

  /// True when at least one line was emitted and every line validates.
  bool Validate(std::string* error) const {
    if (lines_.empty()) {
      if (error) *error = "no JSONL lines were emitted";
      return false;
    }
    for (const std::string& line : lines_) {
      if (!ValidateJsonLine(line, error)) return false;
    }
    return true;
  }

 private:
  std::vector<std::string> lines_;
};

/// Standard tail for figure benches: run the registered counter benchmarks
/// and then print the paper-style series table.
inline int FinishFigure(int argc, char** argv, const Table& table) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::cout << '\n';
  table.Print(std::cout);
  std::cout << '\n';
  return 0;
}

/// FinishFigure plus the JSONL gate: exits nonzero when the sink holds no
/// lines or any malformed line, so CI cannot silently pass on a bench that
/// crashed mid-sweep or emitted non-finite metrics.
inline int FinishFigureChecked(int argc, char** argv, const Table& table,
                               const JsonlSink& sink) {
  const int rc = FinishFigure(argc, argv, table);
  std::string error;
  if (!sink.Validate(&error)) {
    std::cerr << "FATAL: JSONL output failed validation: " << error << '\n';
    return 1;
  }
  std::cout << "jsonl: " << sink.size() << " lines, all valid\n";
  return rc;
}

}  // namespace randrank::bench

#endif  // RANDRANK_BENCH_BENCH_COMMON_H_
