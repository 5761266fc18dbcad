#include "net/protocol.h"

#include <cstring>

namespace randrank::net {

namespace {

// Little-endian scalar store/read. The byte order is explicit so the wire
// format does not depend on host endianness (asserted byte-for-byte by the
// protocol tests); compilers merge each store into one word write.
uint8_t* StoreU16(uint16_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  return p + 2;
}

uint8_t* StoreU32(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
  return p + 4;
}

uint8_t* StoreU64(uint64_t v, uint8_t* p) {
  p = StoreU32(static_cast<uint32_t>(v), p);
  return StoreU32(static_cast<uint32_t>(v >> 32), p);
}

uint8_t* StoreBytes(const std::string& bytes, uint8_t* p) {
  if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
  return p + bytes.size();
}

uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

/// Grows `out` once by a whole frame, writes the 8-byte header and returns
/// where the `payload_len` payload bytes go. Every encoder knows its
/// payload length up front, so each field is stored in place with no
/// per-byte capacity check and nothing is backpatched.
uint8_t* StartFrame(FrameType type, size_t payload_len,
                    std::vector<uint8_t>* out) {
  const size_t start = out->size();
  out->resize(start + kHeaderSize + payload_len);
  uint8_t* p = StoreU32(static_cast<uint32_t>(payload_len), out->data() + start);
  p[0] = kMagic;
  p[1] = kProtocolVersion;
  p[2] = static_cast<uint8_t>(type);
  p[3] = 0;  // flags
  return p + 4;
}

}  // namespace

DecodeStatus DecodeHeader(const uint8_t* data, size_t size, FrameHeader* out) {
  if (size < kHeaderSize) return DecodeStatus::kNeedMore;
  out->payload_len = GetU32(data);
  out->magic = data[4];
  out->version = data[5];
  out->type = static_cast<FrameType>(data[6]);
  out->flags = data[7];
  if (out->magic != kMagic || out->flags != 0 ||
      out->payload_len > kMaxPayload) {
    return DecodeStatus::kMalformed;
  }
  if (out->version != kProtocolVersion) {
    return DecodeStatus::kUnsupportedVersion;
  }
  return DecodeStatus::kOk;
}

void AppendQuery(const QueryFrame& frame, std::vector<uint8_t>* out) {
  uint8_t* p = StartFrame(FrameType::kQuery, 20, out);
  p = StoreU64(frame.request_id, p);
  p = StoreU64(frame.user_id, p);
  StoreU32(frame.m, p);
}

void AppendQueryReply(const QueryReplyFrame& frame, std::vector<uint8_t>* out) {
  const size_t count = frame.pages.size();
  uint8_t* p = StartFrame(FrameType::kQueryReply, 20 + 4 * count, out);
  p = StoreU64(frame.request_id, p);
  p = StoreU64(frame.epoch, p);
  p = StoreU32(static_cast<uint32_t>(count), p);
  for (const uint32_t page : frame.pages) p = StoreU32(page, p);
}

void AppendMetrics(std::vector<uint8_t>* out) {
  StartFrame(FrameType::kMetrics, 0, out);
}

void AppendMetricsReply(const MetricsReplyFrame& frame,
                        std::vector<uint8_t>* out) {
  uint8_t* p =
      StartFrame(FrameType::kMetricsReply, 4 + frame.text.size(), out);
  p = StoreU32(static_cast<uint32_t>(frame.text.size()), p);
  StoreBytes(frame.text, p);
}

void AppendHealth(std::vector<uint8_t>* out) {
  StartFrame(FrameType::kHealth, 0, out);
}

void AppendHealthReply(const HealthReplyFrame& frame,
                       std::vector<uint8_t>* out) {
  uint8_t* p = StartFrame(FrameType::kHealthReply, 34, out);
  *p++ = static_cast<uint8_t>(frame.status);
  p = StoreU64(frame.epoch, p);
  p = StoreU64(frame.inflight, p);
  p = StoreU64(frame.queries, p);
  *p++ = frame.degraded ? 1 : 0;
  StoreU64(frame.stale_epochs, p);
}

void AppendError(const ErrorFrame& frame, std::vector<uint8_t>* out) {
  uint8_t* p = StartFrame(FrameType::kError, 14 + frame.message.size(), out);
  p = StoreU64(frame.request_id, p);
  p = StoreU16(static_cast<uint16_t>(frame.code), p);
  p = StoreU32(static_cast<uint32_t>(frame.message.size()), p);
  StoreBytes(frame.message, p);
}

bool DecodeQuery(const uint8_t* payload, size_t len, QueryFrame* out) {
  if (len != 20) return false;
  out->request_id = GetU64(payload);
  out->user_id = GetU64(payload + 8);
  out->m = GetU32(payload + 16);
  return out->m != 0;
}

bool DecodeQueryReply(const uint8_t* payload, size_t len,
                      QueryReplyFrame* out) {
  if (len < 20) return false;
  out->request_id = GetU64(payload);
  out->epoch = GetU64(payload + 8);
  const uint32_t count = GetU32(payload + 16);
  if (len != 20 + static_cast<size_t>(count) * 4) return false;
  out->pages.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    out->pages[i] = GetU32(payload + 20 + i * 4);
  }
  return true;
}

bool DecodeMetrics(const uint8_t* /*payload*/, size_t len,
                   MetricsFrame* /*out*/) {
  return len == 0;
}

bool DecodeMetricsReply(const uint8_t* payload, size_t len,
                        MetricsReplyFrame* out) {
  if (len < 4) return false;
  const uint32_t text_len = GetU32(payload);
  if (len != 4 + static_cast<size_t>(text_len)) return false;
  out->text.assign(reinterpret_cast<const char*>(payload + 4), text_len);
  return true;
}

bool DecodeHealth(const uint8_t* /*payload*/, size_t len,
                  HealthFrame* /*out*/) {
  return len == 0;
}

bool DecodeHealthReply(const uint8_t* payload, size_t len,
                       HealthReplyFrame* out) {
  if (len != 34) return false;
  const uint8_t status = payload[0];
  if (status != static_cast<uint8_t>(HealthStatus::kServing) &&
      status != static_cast<uint8_t>(HealthStatus::kDraining)) {
    return false;
  }
  const uint8_t degraded = payload[25];
  if (degraded > 1) return false;
  out->status = static_cast<HealthStatus>(status);
  out->epoch = GetU64(payload + 1);
  out->inflight = GetU64(payload + 9);
  out->queries = GetU64(payload + 17);
  out->degraded = degraded != 0;
  out->stale_epochs = GetU64(payload + 26);
  return true;
}

bool DecodeError(const uint8_t* payload, size_t len, ErrorFrame* out) {
  if (len < 14) return false;
  out->request_id = GetU64(payload);
  const uint16_t code = GetU16(payload + 8);
  if (code < static_cast<uint16_t>(ErrorCode::kBadFrame) ||
      code > static_cast<uint16_t>(ErrorCode::kDeadlineExceeded)) {
    return false;
  }
  out->code = static_cast<ErrorCode>(code);
  const uint32_t message_len = GetU32(payload + 10);
  if (len != 14 + static_cast<size_t>(message_len)) return false;
  out->message.assign(reinterpret_cast<const char*>(payload + 14),
                      message_len);
  return true;
}

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kQuery: return "QUERY";
    case FrameType::kMetrics: return "METRICS";
    case FrameType::kHealth: return "HEALTH";
    case FrameType::kQueryReply: return "QUERY_REPLY";
    case FrameType::kMetricsReply: return "METRICS_REPLY";
    case FrameType::kHealthReply: return "HEALTH_REPLY";
    case FrameType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

}  // namespace randrank::net
