#ifndef RANDRANK_NET_DAEMON_H_
#define RANDRANK_NET_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "serve/sharded_rank_server.h"

namespace randrank::net {

struct NetDaemonOptions {
  /// Listen address; the default binds loopback only (the daemon speaks an
  /// unauthenticated binary protocol — put it behind your own perimeter
  /// before binding wider).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, readable via port() after Start().
  uint16_t port = 0;
  int listen_backlog = 128;
  /// Connections beyond this are accepted and immediately closed (the
  /// kernel's backlog already smooths bursts; this caps steady-state fds).
  size_t max_connections = 1024;
  /// Admission control: QUERY frames served from one read pass of one
  /// connection. The event loop serves queries itself, so this bounds how
  /// long one pipelined burst holds the loop; frames beyond it in the same
  /// pass get an immediate ERROR/OVERLOADED reply — an explicit retry
  /// signal — instead of being served. 0 selects 1.
  size_t max_inflight = 4096;
  /// Per-query result-count cap; QUERYs asking for more get BAD_FRAME.
  uint32_t max_query_m = 1024;
  /// Per-connection write backpressure: while a connection's unsent reply
  /// bytes exceed the high watermark the daemon stops reading from it (its
  /// requests sit in the kernel socket buffer, eventually zeroing the
  /// client's TCP window), resuming below the low watermark. A slow reader
  /// throttles itself, never the event loop or other connections.
  size_t write_high_watermark = 1 << 20;
  size_t write_low_watermark = 1 << 18;
  /// Graceful-drain deadline: Drain() force-closes whatever is left (slow
  /// readers that never drained their replies) after this many ms. 0 waits
  /// forever.
  uint64_t drain_timeout_ms = 10000;
  /// Per-query deadline: a QUERY whose turn to be served comes more than
  /// this many microseconds after the socket read that delivered it gets
  /// ERROR/DEADLINE_EXCEEDED instead of a late answer. 0 disables it.
  uint64_t deadline_us = 0;
  /// Observability (optional, borrowed; must outlive the daemon). Counters,
  /// gauges, and histograms land under `net/`; the METRICS scrape frame
  /// answers with PrometheusText over this registry's full snapshot (every
  /// subsystem sharing the registry is visible over the wire).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceLog* trace = nullptr;
};

/// Point-in-time daemon counters (all monotone except active_connections).
struct NetDaemonStats {
  uint64_t accepts = 0;
  uint64_t active_connections = 0;
  uint64_t queries = 0;
  uint64_t replies = 0;
  uint64_t shed_overloaded = 0;
  uint64_t rejected_draining = 0;
  /// Queries answered with ERROR/DEADLINE_EXCEEDED because their turn came
  /// more than NetDaemonOptions::deadline_us after the read that delivered
  /// them.
  uint64_t deadline_exceeded = 0;
  uint64_t bad_frames = 0;
  uint64_t scrapes = 0;
  uint64_t health_checks = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// Stand-alone network serving daemon: the service boundary in front of
/// ShardedRankServer. One thread runs an epoll event loop that owns the
/// listen socket and every connection, speaks the length-prefixed binary
/// protocol of net/protocol.h, and serves each decoded QUERY itself — a
/// one-query ServeBatch on a serving Context the loop owns, drawn from the
/// same RCU-pinned ServingView mechanics as in-process callers. Every reply
/// is staged into its connection's write buffer as its frame is parsed, so
/// a connection's replies leave in request order; each read pass ends with
/// one flush. METRICS frames answer with the Prometheus exposition of the
/// attached registry ("metrics over the wire"); HEALTH reports epoch and
/// drain state.
///
/// Threading:
///  * The event-loop thread does all socket I/O and all serving; no other
///    thread touches connection state. One slow query therefore stalls
///    every connection for its duration.
///  * The writer thread (whoever calls server.Update()) is untouched:
///    epoch publishes and policy hot-swaps land mid-traffic exactly as for
///    in-process callers — a query pinned to the old view completes under
///    it, no query is dropped (tests/net_test.cc exercises continuous
///    hot-swaps through the socket under TSan).
///  * Drain() and Stop() reach the loop through an eventfd.
///
/// Overload behavior: QUERY frames beyond max_inflight in one read pass
/// get an immediate ERROR/OVERLOADED reply, and with deadline_us set a
/// query whose turn came too late gets ERROR/DEADLINE_EXCEEDED, so clients
/// get an explicit retry signal instead of a hang. Per-connection write
/// backpressure pauses reading from clients too slow to take their replies.
///
/// Shutdown: Drain() (also the SIGTERM path in tools/randrankd) stops
/// accepting; frames read before the loop saw the drain are answered and
/// flushed, later QUERYs get ERROR/DRAINING; then everything closes.
/// Stop() is immediate.
class NetDaemon {
 public:
  /// The daemon serves `server` (borrowed; must outlive the daemon). Its
  /// serving Context is created at Start(), so it is the server's next
  /// CreateContext() stream.
  NetDaemon(ShardedRankServer& server, NetDaemonOptions options = {});
  ~NetDaemon();

  NetDaemon(const NetDaemon&) = delete;
  NetDaemon& operator=(const NetDaemon&) = delete;

  /// Binds, listens, and starts the event loop thread. Throws
  /// std::runtime_error on bind/listen failure.
  void Start();

  /// The bound port (after Start(); with options.port == 0 this is the
  /// kernel-assigned ephemeral port).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting connections, answer and flush every
  /// frame read before the loop saw the drain, reject later QUERYs with
  /// ERROR/DRAINING, then close everything and join. Returns true when
  /// everything drained cleanly, false when the drain deadline
  /// force-closed leftovers. Idempotent; concurrent callers are serialized.
  bool Drain();

  /// Immediate stop: the loop finishes the read pass it is in, then
  /// abandons every connection without flushing.
  void Stop();

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  NetDaemonStats stats() const;

 private:
  struct Connection;
  using Clock = std::chrono::steady_clock;

  /// State of one read pass over one connection.
  struct ReadPass {
    /// The drain flag, read once before reading.
    bool draining = false;
    /// When the read finished; stamped only with deadline_us set.
    Clock::time_point read_at{};
    /// QUERY frames admitted so far (the max_inflight cap).
    size_t admitted = 0;
  };

  void Loop();
  void AcceptNew();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Parses every complete frame in the connection's read buffer, staging
  /// each reply in order; returns false when the connection must close
  /// (fatal protocol error).
  bool ParseFrames(Connection& conn, ReadPass& pass);
  void HandleQuery(Connection& conn, const QueryFrame& query, ReadPass& pass);
  /// Stages an ERROR reply (event-loop thread).
  void SendError(Connection& conn, uint64_t request_id, ErrorCode code,
                 const std::string& message);
  /// Writes as much buffered output as the socket takes; arms/disarms
  /// EPOLLOUT and read-pause watermarks. Event-loop thread only.
  void FlushWrites(const std::shared_ptr<Connection>& conn);
  void CloseConnection(int fd);
  void UpdateEpollInterest(const std::shared_ptr<Connection>& conn);
  void Wake();
  /// True when no connection has unsent reply bytes.
  bool AllFlushed() const;
  void JoinAndTearDown();

  ShardedRankServer& server_;
  NetDaemonOptions opts_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::thread loop_thread_;

  /// Event-loop-owned serving state: the context every QUERY is served on
  /// and one reusable single-query batch (its m is set per query).
  ShardedRankServer::Context ctx_;
  QueryBatch batch_{0, 1};

  /// Event-loop-owned connection table.
  std::unordered_map<int, std::shared_ptr<Connection>> connections_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> torn_down_{false};
  std::mutex lifecycle_mutex_;  // serializes Drain/Stop/destructor
  /// Written by the event-loop thread before it exits, read after join.
  bool drain_was_clean_ = true;

  std::atomic<uint64_t> active_{0};
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> replies_{0};
  std::atomic<uint64_t> shed_overloaded_{0};
  std::atomic<uint64_t> rejected_draining_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> bad_frames_{0};
  std::atomic<uint64_t> scrapes_{0};
  std::atomic<uint64_t> health_checks_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
  /// Drives 1-in-sample_every net/request span sampling (event loop).
  uint64_t request_seq_ = 0;

  /// Registry endpoints, resolved once at construction (null when
  /// opts_.metrics is null).
  obs::Counter* accepts_ctr_ = nullptr;
  obs::Counter* queries_ctr_ = nullptr;
  obs::Counter* replies_ctr_ = nullptr;
  obs::Counter* shed_ctr_ = nullptr;
  obs::Counter* draining_ctr_ = nullptr;
  obs::Counter* deadline_ctr_ = nullptr;
  obs::Counter* bad_ctr_ = nullptr;
  obs::Counter* scrapes_ctr_ = nullptr;
  obs::Counter* health_ctr_ = nullptr;
  obs::Counter* bytes_read_ctr_ = nullptr;
  obs::Counter* bytes_written_ctr_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* draining_gauge_ = nullptr;
  obs::LatencyHistogram* request_hist_ = nullptr;
  obs::LatencyHistogram* read_hist_ = nullptr;
  obs::LatencyHistogram* write_hist_ = nullptr;
  obs::LatencyHistogram* conn_hist_ = nullptr;
};

}  // namespace randrank::net

#endif  // RANDRANK_NET_DAEMON_H_
