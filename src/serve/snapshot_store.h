#ifndef RANDRANK_SERVE_SNAPSHOT_STORE_H_
#define RANDRANK_SERVE_SNAPSHOT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

namespace randrank {

/// Single-slot publish point for immutable snapshots: one writer swaps in
/// new generations, many readers observe them through per-thread
/// SnapshotHandle caches (RCU-style epoch publish).
///
/// The hot read path is a single acquire load of the version counter — no
/// lock, no reference-count traffic. A reader only touches the mutex on the
/// refresh slow path, at most once per published generation, to copy the
/// shared_ptr into its thread-local cache. Superseded snapshots are
/// reclaimed by shared_ptr ownership once the last handle refreshes past
/// them, so the writer never blocks on readers and readers never observe a
/// freed snapshot.
template <typename T>
class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  /// Writer side: atomically replaces the current snapshot.
  void Publish(std::shared_ptr<const T> snap) {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = std::move(snap);
    // The store is written under the same mutex the readers' slow path
    // takes, so release ordering on the counter is enough for the fast-path
    // version check.
    version_.fetch_add(1, std::memory_order_release);
  }

  /// Reader slow path: snapshot plus the version it corresponds to.
  std::shared_ptr<const T> Load(uint64_t* version) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (version) *version = version_.load(std::memory_order_relaxed);
    return current_;
  }

  /// Current publish count. 0 means nothing has been published yet.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const T> current_;
  std::atomic<uint64_t> version_{0};
};

/// A reader thread's cached view of one SnapshotStore. Get() is the serving
/// hot path: one atomic load and a compare in steady state. Each handle must
/// be used by a single thread at a time (the server hands one out per
/// serving context).
template <typename T>
class SnapshotHandle {
 public:
  SnapshotHandle() = default;
  explicit SnapshotHandle(const SnapshotStore<T>* store) : store_(store) {}

  /// Latest published snapshot, or nullptr when none has been published.
  /// The returned pointer stays valid until the next Get() on this handle
  /// (the cache keeps shared ownership of the generation it returned).
  const T* Get() {
    const uint64_t v = store_->version();
    if (v != cached_version_) {
      cached_ = store_->Load(&cached_version_);
    }
    return cached_.get();
  }

 private:
  const SnapshotStore<T>* store_ = nullptr;
  std::shared_ptr<const T> cached_;
  uint64_t cached_version_ = 0;
};

}  // namespace randrank

#endif  // RANDRANK_SERVE_SNAPSHOT_STORE_H_
