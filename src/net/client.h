#ifndef RANDRANK_NET_CLIENT_H_
#define RANDRANK_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace randrank::net {

/// Blocking client for the randrank daemon protocol: framing, pipelining,
/// and reply matching over one TCP connection. Used by the closed-loop
/// driver (tools/net_client), the socket-path benches (bench/perf_net), and
/// the end-to-end tests. Not thread-safe — one client per thread.
class NetClient {
 public:
  enum class Status {
    kOk,
    kOverloaded,         // server shed the query (ERROR/OVERLOADED); retry later
    kDraining,           // server refuses new queries (ERROR/DRAINING)
    kDeadlineExceeded,   // query waited past its serving deadline
                         // (ERROR/DEADLINE_EXCEEDED); retryable
    kError,              // other ERROR reply (code/message in last_error())
    kIoError,            // connect/read/write failure or malformed reply; the
                         // connection is unusable — Close() and reconnect
  };

  struct QueryResult {
    std::vector<uint32_t> pages;
    uint64_t epoch = 0;
  };

  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects, retrying `retries` times 100 ms apart (daemon startup races
  /// in scripts). Each connect attempt is bounded at 5 s (a black-holed or
  /// stalled peer fails the attempt instead of hanging) and every later
  /// blocking read at 10 s. The endpoint is remembered, so QueryWithRetry
  /// can reconnect after a reset. Returns false when every attempt failed.
  bool Connect(const std::string& host, uint16_t port, int retries = 0);
  bool connected() const { return fd_ >= 0; }
  void Close();

  /// One blocking round-trip: QUERY then its reply.
  Status Query(uint32_t m, uint64_t user_id, QueryResult* out);

  /// Query with bounded retry on transient failures — OVERLOADED, DRAINING,
  /// and DEADLINE_EXCEEDED replies back off and retry on the same
  /// connection; an IO error (reset, desync, timeout) closes and reconnects
  /// to the remembered endpoint first. At most 3 attempts; the sleep before
  /// attempt k (k >= 2) is min(10 ms * 2^(k-2), 1 s) scaled by (1 - 0.5 u),
  /// where u in [0, 1) is a splitmix64 coin keyed on the connection's local
  /// port and the client's retry sequence: clients shed together spread
  /// their retries, and a schedule replays exactly given its connection.
  /// Returns the final attempt's status: kOk, a non-retryable kError, or the
  /// transient status that exhausted the attempts.
  Status QueryWithRetry(uint32_t m, uint64_t user_id, QueryResult* out);

  /// The backoff sleeps the last QueryWithRetry computed, in attempt order
  /// (empty when its first attempt settled the query).
  const std::vector<double>& last_retry_sleeps_ms() const {
    return retry_sleeps_ms_;
  }

  /// Pipelining halves: send without waiting, then collect replies in
  /// order. `request_id` (returned by SendQuery) matches `ReadReply`'s.
  bool SendQuery(uint32_t m, uint64_t user_id, uint64_t* request_id);
  Status ReadReply(QueryResult* out, uint64_t* request_id);

  /// METRICS round-trip: the daemon's Prometheus exposition text.
  Status Scrape(std::string* text);

  /// HEALTH round-trip.
  Status Health(HealthReplyFrame* out);

  /// Writes raw bytes on the wire (protocol-violation tests).
  bool SendRaw(const std::vector<uint8_t>& bytes);
  /// Reads whatever frame arrives next; returns false on EOF/timeout.
  bool ReadFrameRaw(FrameHeader* header, std::vector<uint8_t>* payload);

  const ErrorFrame& last_error() const { return last_error_; }

 private:
  bool WriteAll(const uint8_t* data, size_t size);
  /// Blocking read of the next complete frame into header_/payload_.
  bool ReadFrame();
  /// Re-dials the endpoint Connect() remembered (single attempt).
  bool Reconnect();

  int fd_ = -1;
  /// Remembered endpoint for Reconnect().
  std::string host_;
  uint16_t port_ = 0;
  /// Local port of the current connection; keys the retry jitter coin.
  uint16_t local_port_ = 0;
  /// Monotone draw index for the deterministic retry jitter stream.
  uint64_t retry_seq_ = 0;
  std::vector<double> retry_sleeps_ms_;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> rbuf_;
  FrameHeader header_;
  std::vector<uint8_t> payload_;
  ErrorFrame last_error_;
};

}  // namespace randrank::net

#endif  // RANDRANK_NET_CLIENT_H_
