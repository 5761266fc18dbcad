#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace randrank::net {

namespace {

constexpr int kRetryMs = 100;
constexpr int kConnectTimeoutMs = 5000;
constexpr int kReadTimeoutMs = 10000;

/// QueryWithRetry's fixed schedule: attempts, first backoff, growth per
/// attempt, backoff cap, and the fraction of each backoff randomized away.
constexpr int kRetryAttempts = 3;
constexpr double kInitialBackoffMs = 10.0;
constexpr double kBackoffMultiplier = 2.0;
constexpr double kMaxBackoffMs = 1000.0;
constexpr double kBackoffJitter = 0.5;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bounded connect: non-blocking connect + poll, so a black-holed peer
/// costs `timeout_ms` instead of the kernel's minutes-long default.
bool ConnectWithTimeout(int fd, const sockaddr_in& addr, int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) return false;
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0) {
    if (errno != EINPROGRESS) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    if (::poll(&pfd, 1, timeout_ms) != 1) return false;  // timeout or error
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return false;
    }
  }
  return ::fcntl(fd, F_SETFL, flags) == 0;  // back to blocking reads/writes
}

}  // namespace

NetClient::~NetClient() { Close(); }

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rbuf_.clear();
}

bool NetClient::Connect(const std::string& host, uint16_t port, int retries) {
  Close();
  host_ = host;
  port_ = port;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kRetryMs));
    }
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) continue;
    if (ConnectWithTimeout(fd_, addr, kConnectTimeoutMs)) {
      sockaddr_in local{};
      socklen_t local_len = sizeof(local);
      local_port_ = ::getsockname(fd_, reinterpret_cast<sockaddr*>(&local),
                                  &local_len) == 0
                        ? ntohs(local.sin_port)
                        : 0;
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      timeval tv{};
      tv.tv_sec = kReadTimeoutMs / 1000;
      tv.tv_usec = (kReadTimeoutMs % 1000) * 1000;
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      return true;
    }
    ::close(fd_);
    fd_ = -1;
  }
  return false;
}

bool NetClient::Reconnect() {
  if (host_.empty()) return false;
  return Connect(host_, port_);
}

bool NetClient::WriteAll(const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    // send, not write: a peer that closed must fail the call (EPIPE), not
    // kill the process with SIGPIPE.
    const ssize_t n = ::send(fd_, data + off, size - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool NetClient::ReadFrame() {
  while (true) {
    // Parse from the front of the buffer once a complete frame is in.
    if (rbuf_.size() >= kHeaderSize) {
      const DecodeStatus status =
          DecodeHeader(rbuf_.data(), rbuf_.size(), &header_);
      if (status == DecodeStatus::kMalformed) return false;
      // kUnsupportedVersion from a same-version server never happens; treat
      // a well-formed foreign-version frame as readable so the caller can
      // inspect it.
      if (status != DecodeStatus::kNeedMore &&
          rbuf_.size() >= kHeaderSize + header_.payload_len) {
        payload_.assign(
            rbuf_.begin() + kHeaderSize,
            rbuf_.begin() + static_cast<ptrdiff_t>(kHeaderSize +
                                                   header_.payload_len));
        rbuf_.erase(rbuf_.begin(),
                    rbuf_.begin() + static_cast<ptrdiff_t>(
                                        kHeaderSize + header_.payload_len));
        return true;
      }
    }
    uint8_t chunk[16 * 1024];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF, timeout, or error
  }
}

bool NetClient::SendQuery(uint32_t m, uint64_t user_id, uint64_t* request_id) {
  if (fd_ < 0) return false;
  QueryFrame query;
  query.request_id = next_request_id_++;
  query.user_id = user_id;
  query.m = m;
  if (request_id != nullptr) *request_id = query.request_id;
  std::vector<uint8_t> bytes;
  AppendQuery(query, &bytes);
  return WriteAll(bytes.data(), bytes.size());
}

NetClient::Status NetClient::ReadReply(QueryResult* out, uint64_t* request_id) {
  if (!ReadFrame()) return Status::kIoError;
  if (header_.type == FrameType::kError) {
    if (!DecodeError(payload_.data(), payload_.size(), &last_error_)) {
      return Status::kIoError;
    }
    if (request_id != nullptr) *request_id = last_error_.request_id;
    switch (last_error_.code) {
      case ErrorCode::kOverloaded: return Status::kOverloaded;
      case ErrorCode::kDraining: return Status::kDraining;
      case ErrorCode::kDeadlineExceeded: return Status::kDeadlineExceeded;
      default: return Status::kError;
    }
  }
  if (header_.type != FrameType::kQueryReply) return Status::kIoError;
  QueryReplyFrame reply;
  if (!DecodeQueryReply(payload_.data(), payload_.size(), &reply)) {
    return Status::kIoError;
  }
  if (request_id != nullptr) *request_id = reply.request_id;
  if (out != nullptr) {
    out->pages = std::move(reply.pages);
    out->epoch = reply.epoch;
  }
  return Status::kOk;
}

NetClient::Status NetClient::Query(uint32_t m, uint64_t user_id,
                                   QueryResult* out) {
  uint64_t sent_id = 0;
  if (!SendQuery(m, user_id, &sent_id)) return Status::kIoError;
  uint64_t got_id = 0;
  const Status status = ReadReply(out, &got_id);
  // A reply to some other request on an un-pipelined connection means the
  // stream is desynced.
  if (status == Status::kOk && got_id != sent_id) return Status::kIoError;
  return status;
}

NetClient::Status NetClient::QueryWithRetry(uint32_t m, uint64_t user_id,
                                            QueryResult* out) {
  Status status = Status::kIoError;
  double backoff_ms = kInitialBackoffMs;
  retry_sleeps_ms_.clear();
  for (int attempt = 1; attempt <= kRetryAttempts; ++attempt) {
    if (attempt > 1) {
      // Exponential backoff with deterministic jitter. The coin mixes the
      // connection's local port into the draw index: clients shed at the
      // same moment sleep different schedules instead of retrying in
      // lockstep, and a schedule still replays given its connection.
      const uint64_t bits =
          SplitMix64(SplitMix64(local_port_) ^ (retry_seq_++ + 1));
      const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
      const double sleep_ms =
          std::min(backoff_ms, kMaxBackoffMs) * (1.0 - kBackoffJitter * u);
      retry_sleeps_ms_.push_back(sleep_ms);
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleep_ms));
      backoff_ms *= kBackoffMultiplier;
    }
    if (fd_ < 0 && !Reconnect()) {
      status = Status::kIoError;
      continue;
    }
    status = Query(m, user_id, out);
    switch (status) {
      case Status::kOk:
      case Status::kError:
        return status;  // done, or not retryable
      case Status::kIoError:
        // Reset / desync / read timeout: this connection is unusable.
        // Close now; the next attempt re-dials the remembered endpoint.
        Close();
        break;
      case Status::kOverloaded:
      case Status::kDraining:
      case Status::kDeadlineExceeded:
        break;  // transient shed; the connection is still good
    }
  }
  return status;
}

NetClient::Status NetClient::Scrape(std::string* text) {
  if (fd_ < 0) return Status::kIoError;
  std::vector<uint8_t> bytes;
  AppendMetrics(&bytes);
  if (!WriteAll(bytes.data(), bytes.size())) return Status::kIoError;
  if (!ReadFrame()) return Status::kIoError;
  if (header_.type == FrameType::kError &&
      DecodeError(payload_.data(), payload_.size(), &last_error_)) {
    return Status::kError;
  }
  if (header_.type != FrameType::kMetricsReply) return Status::kIoError;
  MetricsReplyFrame reply;
  if (!DecodeMetricsReply(payload_.data(), payload_.size(), &reply)) {
    return Status::kIoError;
  }
  if (text != nullptr) *text = std::move(reply.text);
  return Status::kOk;
}

NetClient::Status NetClient::Health(HealthReplyFrame* out) {
  if (fd_ < 0) return Status::kIoError;
  std::vector<uint8_t> bytes;
  AppendHealth(&bytes);
  if (!WriteAll(bytes.data(), bytes.size())) return Status::kIoError;
  if (!ReadFrame()) return Status::kIoError;
  if (header_.type == FrameType::kError &&
      DecodeError(payload_.data(), payload_.size(), &last_error_)) {
    return Status::kError;
  }
  if (header_.type != FrameType::kHealthReply) return Status::kIoError;
  HealthReplyFrame reply;
  if (!DecodeHealthReply(payload_.data(), payload_.size(), &reply)) {
    return Status::kIoError;
  }
  if (out != nullptr) *out = reply;
  return Status::kOk;
}

bool NetClient::SendRaw(const std::vector<uint8_t>& bytes) {
  if (fd_ < 0) return false;
  return WriteAll(bytes.data(), bytes.size());
}

bool NetClient::ReadFrameRaw(FrameHeader* header,
                             std::vector<uint8_t>* payload) {
  if (!ReadFrame()) return false;
  if (header != nullptr) *header = header_;
  if (payload != nullptr) *payload = payload_;
  return true;
}

}  // namespace randrank::net
