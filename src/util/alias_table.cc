#include "util/alias_table.h"

#include <cassert>
#include <cmath>

namespace randrank {

void AliasTable::Build(const double* weights, const uint32_t* ids, size_t n) {
  columns_.clear();
  if (n == 0) return;

  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    assert(std::isfinite(weights[i]) && weights[i] >= 0.0);
    sum += weights[i];
  }
  assert(sum > 0.0 && "alias table needs at least one positive weight");

  // Vose's stable two-stack construction over the scaled probabilities
  // p[i] = w[i] * n / sum, held in each column's `accept` while the pass
  // runs: columns under 1.0 take the balance from columns over 1.0 until
  // every column holds exactly unit mass. A column's value is final once it
  // is popped from `small`, which is when it becomes its acceptance.
  const double scale = static_cast<double>(n) / sum;
  // The table is reserved before the two stacks, so the stacks, freed on
  // return, sit above it in the heap. It is filled once below, not zeroed
  // first.
  columns_.reserve(n);
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    columns_.push_back({weights[i] * scale, ids[i], ids[i]});
    (columns_[i].accept < 1.0 ? small : large)
        .push_back(static_cast<uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    Column& s = columns_[small.back()];
    const uint32_t l = large.back();
    small.pop_back();
    s.alias_id = columns_[l].id;
    // The large column donated (1 - p[s]) of its mass to column s.
    columns_[l].accept -= 1.0 - s.accept;
    if (columns_[l].accept < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers on either stack hold (numerically) unit mass: accept with
  // probability 1 and keep the alias at their own id so a stray coin above
  // a slightly-under-1.0 acceptance still returns a valid id.
  for (const uint32_t i : large) columns_[i].accept = 1.0;
  for (const uint32_t i : small) columns_[i].accept = 1.0;
}

}  // namespace randrank
