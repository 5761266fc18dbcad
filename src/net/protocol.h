#ifndef RANDRANK_NET_PROTOCOL_H_
#define RANDRANK_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace randrank::net {

/// Wire protocol of the randrank serving daemon (docs/PROTOCOL.md is the
/// normative prose spec; tools/lint_docs.py fails CI when the two diverge,
/// and tests/net_test.cc round-trips every frame type defined here).
///
/// Every frame is an 8-byte header followed by `payload_len` payload bytes.
/// All integers are little-endian, no padding, no alignment requirements:
///
///   offset 0  u32 payload_len   bytes after the header (<= kMaxPayload)
///   offset 4  u8  magic         kMagic (0x52, 'R')
///   offset 5  u8  version       kProtocolVersion
///   offset 6  u8  type          FrameType
///   offset 7  u8  flags         reserved, must be 0
///
/// Version negotiation is rejection-based: the server answers a frame whose
/// version it does not speak with ERROR/UNSUPPORTED_VERSION (carrying its
/// own version in the message) and closes; clients downgrade and reconnect.
inline constexpr uint8_t kMagic = 0x52;  // 'R'
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 8;
/// Upper bound on payload_len; larger headers are malformed (a desynced or
/// hostile peer must not make the server buffer unbounded input).
inline constexpr uint32_t kMaxPayload = 1u << 20;

/// Frame types. Requests have the high bit clear, replies set (a reply's
/// type is its request's type | 0x80, except ERROR which answers anything).
enum class FrameType : uint8_t {
  kQuery = 0x01,         // top-m query                      (client -> server)
  kMetrics = 0x02,       // Prometheus metrics scrape        (client -> server)
  kHealth = 0x03,        // liveness / epoch / drain status  (client -> server)
  kQueryReply = 0x81,    // served result list               (server -> client)
  kMetricsReply = 0x82,  // metrics exposition text          (server -> client)
  kHealthReply = 0x83,   // health report                    (server -> client)
  kError = 0xEE,         // error reply, see ErrorCode       (server -> client)
};

/// Every frame type, for exhaustive round-trip tests and doc lint.
inline constexpr FrameType kAllFrameTypes[] = {
    FrameType::kQuery,      FrameType::kMetrics,      FrameType::kHealth,
    FrameType::kQueryReply, FrameType::kMetricsReply, FrameType::kHealthReply,
    FrameType::kError,
};

/// ERROR frame codes. OVERLOADED and DRAINING are per-request and
/// recoverable (the connection stays open; the client may retry after
/// backoff or against another instance); the rest indicate a protocol
/// violation — after BAD_FRAME or UNSUPPORTED_VERSION the server closes the
/// connection, since framing may be desynced.
enum class ErrorCode : uint16_t {
  kBadFrame = 1,            // malformed header or payload (fatal)
  kUnsupportedVersion = 2,  // header version not spoken (fatal)
  kBadType = 3,             // unknown frame type (non-fatal; length known)
  kOverloaded = 4,          // admission control shed this query (retryable)
  kDraining = 5,            // server is draining; no new queries (retryable
                            // against another instance)
  kDeadlineExceeded = 6,    // the query waited past its serving deadline and
                            // was shed with an explicit timeout (retryable;
                            // the connection stays open)
};

/// HEALTH_REPLY status values.
enum class HealthStatus : uint8_t {
  kServing = 1,
  kDraining = 2,
};

/// QUERY payload (20 bytes):
///   u64 request_id   echoed verbatim in the reply (client-chosen; pipelined
///                    requests are answered in order, ids make misorder
///                    detectable)
///   u64 user_id      the querying user (traffic accounting / bucketing)
///   u32 m            result slots requested; 0 is malformed, and the server
///                    rejects m beyond its configured cap with BAD_FRAME
struct QueryFrame {
  uint64_t request_id = 0;
  uint64_t user_id = 0;
  uint32_t m = 0;
};

/// QUERY_REPLY payload (20 + 4*count bytes):
///   u64 request_id   echo
///   u64 epoch        serving epoch the realization was drawn from
///   u32 count        result slots that follow (min(m, corpus size))
///   u32[count]       page ids, best slot first
struct QueryReplyFrame {
  uint64_t request_id = 0;
  uint64_t epoch = 0;
  std::vector<uint32_t> pages;
};

/// METRICS payload (0 bytes). The reply carries the full Prometheus text
/// exposition of the daemon's registry (obs::PrometheusText).
struct MetricsFrame {};

/// METRICS_REPLY payload (4 + text_len bytes):
///   u32 text_len     UTF-8 byte length of the exposition text
///   u8[text_len]     the text (not NUL-terminated)
struct MetricsReplyFrame {
  std::string text;
};

/// HEALTH payload (0 bytes).
struct HealthFrame {};

/// HEALTH_REPLY payload (34 bytes):
///   u8  status       HealthStatus
///   u64 epoch        currently served epoch (0 before the first publish)
///   u64 inflight     always 0 (queries are answered as they are read);
///                    kept for v1 compatibility
///   u64 queries      queries answered since start
///   u8  degraded     1 when the most recent epoch publish failed and the
///                    server is still serving the previous snapshot
///   u64 stale_epochs consecutive failed publishes since the last success
///                    (0 when not degraded)
struct HealthReplyFrame {
  HealthStatus status = HealthStatus::kServing;
  uint64_t epoch = 0;
  uint64_t inflight = 0;
  uint64_t queries = 0;
  bool degraded = false;
  uint64_t stale_epochs = 0;
};

/// ERROR payload (14 + message_len bytes):
///   u64 request_id   echo of the offending QUERY's id, 0 when the error is
///                    not attributable to a query
///   u16 code         ErrorCode
///   u32 message_len  UTF-8 byte length of the diagnostic message
///   u8[message_len]  human-readable diagnostic (not part of the contract)
struct ErrorFrame {
  uint64_t request_id = 0;
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;
};

/// Parsed frame header.
struct FrameHeader {
  uint32_t payload_len = 0;
  uint8_t magic = 0;
  uint8_t version = 0;
  FrameType type = FrameType::kQuery;
  uint8_t flags = 0;
};

enum class DecodeStatus {
  kOk,
  kNeedMore,            // fewer than kHeaderSize bytes available
  kMalformed,           // bad magic, nonzero flags, or payload_len overflow
  kUnsupportedVersion,  // well-formed header, version != kProtocolVersion
};

/// Parses (without consuming) a frame header from the first kHeaderSize
/// bytes of `data`. On kOk/kUnsupportedVersion `out` is filled; the caller
/// then waits for payload_len more bytes. kMalformed headers cannot be
/// resynced — close the connection.
DecodeStatus DecodeHeader(const uint8_t* data, size_t size, FrameHeader* out);

// --- Encoders: append one complete frame (header + payload) to `out`. ---
void AppendQuery(const QueryFrame& frame, std::vector<uint8_t>* out);
void AppendQueryReply(const QueryReplyFrame& frame, std::vector<uint8_t>* out);
void AppendMetrics(std::vector<uint8_t>* out);
void AppendMetricsReply(const MetricsReplyFrame& frame,
                        std::vector<uint8_t>* out);
void AppendHealth(std::vector<uint8_t>* out);
void AppendHealthReply(const HealthReplyFrame& frame,
                       std::vector<uint8_t>* out);
void AppendError(const ErrorFrame& frame, std::vector<uint8_t>* out);

// --- Payload decoders: parse exactly [payload, payload + len). Return false
// on any length/content mismatch (trailing bytes are a mismatch too). ---
bool DecodeQuery(const uint8_t* payload, size_t len, QueryFrame* out);
bool DecodeQueryReply(const uint8_t* payload, size_t len, QueryReplyFrame* out);
bool DecodeMetrics(const uint8_t* payload, size_t len, MetricsFrame* out);
bool DecodeMetricsReply(const uint8_t* payload, size_t len,
                        MetricsReplyFrame* out);
bool DecodeHealth(const uint8_t* payload, size_t len, HealthFrame* out);
bool DecodeHealthReply(const uint8_t* payload, size_t len,
                       HealthReplyFrame* out);
bool DecodeError(const uint8_t* payload, size_t len, ErrorFrame* out);

/// Human-readable slug for diagnostics ("QUERY", "METRICS_REPLY", ...).
const char* FrameTypeName(FrameType type);

}  // namespace randrank::net

#endif  // RANDRANK_NET_PROTOCOL_H_
