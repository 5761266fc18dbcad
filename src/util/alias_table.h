#ifndef RANDRANK_UTIL_ALIAS_TABLE_H_
#define RANDRANK_UTIL_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace randrank {

/// Walker/Vose alias table: O(1) draws from a fixed discrete distribution
/// after O(n) construction. Each column i holds the acceptance probability
/// of entry i, entry i's caller-supplied id, and the id of the alias entry
/// that absorbs the column's leftover mass, so a draw is one uniform column
/// pick and one uniform coin: no search, and one 16-byte column read.
///
/// Construction is deterministic (no Rng) and the table is immutable after
/// Build, so one table may be shared lock-free by any number of sampling
/// threads — exactly the shape of per-epoch serving state (see
/// PlackettLucePolicy::BuildEpochState, which builds one per publish over
/// exp(score/T) with the det page ids).
class AliasTable {
 public:
  /// Aligned to its size so a column never straddles two cache lines.
  struct alignas(16) Column {
    double accept;      // probability the coin keeps `id`
    uint32_t id;        // ids[i] of this column's own entry i
    uint32_t alias_id;  // ids[] of the entry that takes the leftover mass
  };
  static_assert(sizeof(Column) == 16, "one column is 16 bytes");

  AliasTable() = default;

  /// Builds the table for the distribution proportional to `weights`
  /// (finite, non-negative, at least one strictly positive entry unless
  /// n == 0); entry i carries `ids[i]`. O(n) time and memory.
  void Build(const double* weights, const uint32_t* ids, size_t n);

  size_t size() const { return columns_.size(); }
  bool empty() const { return columns_.empty(); }

  /// ids[i] with probability weights[i] / sum(weights). Consumes exactly
  /// two Rng draws. size() must be positive.
  uint32_t Sample(Rng& rng) const {
    const Column& c = columns_[rng.NextIndex(columns_.size())];
    return rng.NextDouble() < c.accept ? c.id : c.alias_id;
  }

  /// Advances `ahead` exactly as Sample advances its Rng and prefetches the
  /// column that draw reads. A caller that keeps a copy of its Rng a fixed
  /// number of Lookahead calls ahead of its Sample calls overlaps the cache
  /// misses of successive draws without changing any of them.
  void Lookahead(Rng& ahead) const {
    __builtin_prefetch(&columns_[ahead.NextIndex(columns_.size())]);
    (void)ahead.NextDouble();  // the coin Sample draws
  }

  /// Column i (diagnostic; accept 1.0 means the column never forwards to
  /// its alias).
  const Column& column(size_t i) const { return columns_[i]; }

 private:
  std::vector<Column> columns_;
};

}  // namespace randrank

#endif  // RANDRANK_UTIL_ALIAS_TABLE_H_
