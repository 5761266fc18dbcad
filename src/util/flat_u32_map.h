#ifndef RANDRANK_UTIL_FLAT_U32_MAP_H_
#define RANDRANK_UTIL_FLAT_U32_MAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace randrank {

/// A flat open-addressed map from uint32 keys to uint32 values, also used as
/// a plain set of keys (linear probing over a power-of-two table at most
/// half full). There is no erase, and Reset() empties only the slots filled
/// since the last Reset, so a use that inserts nothing pays nothing and the
/// table is allocated once per owner, at its largest size. Serving scratch
/// uses it per query: the pages one query has emitted, and the pool slots a
/// lazy shuffle has swapped.
class FlatU32Map {
 public:
  /// Empties the map and sizes it for at most `max_entries` keys. Call it
  /// before the first inserts too.
  void Reset(size_t max_entries) {
    for (const uint32_t slot : filled_) keys_[slot] = kEmpty;
    filled_.clear();
    unsigned bits = 4;
    while ((size_t{1} << bits) < 2 * max_entries) ++bits;
    shift_ = 64 - bits;
    if (keys_.size() < (size_t{1} << bits)) {
      keys_.assign(size_t{1} << bits, kEmpty);
      values_.resize(size_t{1} << bits);
    }
  }

  /// Adds `key`; false when it was already present.
  bool Insert(uint32_t key) {
    const size_t slot = Find(key);
    if (keys_[slot] == key) return false;
    Fill(slot, key);
    return true;
  }

  bool Contains(uint32_t key) const { return keys_[Find(key)] == key; }

  /// The value stored for `key`, or `absent` when it has none.
  uint32_t Get(uint32_t key, uint32_t absent) const {
    const size_t slot = Find(key);
    return keys_[slot] == key ? values_[slot] : absent;
  }

  /// Stores `value` for `key`, adding the key when absent.
  void Put(uint32_t key, uint32_t value) {
    const size_t slot = Find(key);
    if (keys_[slot] != key) Fill(slot, key);
    values_[slot] = value;
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Fibonacci hashing: the top bits of a multiplicative hash, so runs of
  /// consecutive keys spread over the table.
  size_t Home(uint32_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  size_t Next(size_t slot) const {
    return (slot + 1) & ((size_t{1} << (64 - shift_)) - 1);
  }
  /// The slot holding `key`, or the empty slot that ends its probe run.
  size_t Find(uint32_t key) const {
    size_t slot = Home(key);
    while (keys_[slot] != key && keys_[slot] != kEmpty) slot = Next(slot);
    return slot;
  }
  void Fill(size_t slot, uint32_t key) {
    assert(key != kEmpty && filled_.size() < (size_t{1} << (63 - shift_)));
    keys_[slot] = key;
    filled_.push_back(static_cast<uint32_t>(slot));
  }

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> values_;
  std::vector<uint32_t> filled_;
  unsigned shift_ = 60;
};

}  // namespace randrank

#endif  // RANDRANK_UTIL_FLAT_U32_MAP_H_
