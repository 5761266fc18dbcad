#include "net/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "fault/fault.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace randrank::net {

namespace {
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kListenBacklog = 128;
/// Per-connection write backpressure: reading from a connection pauses at
/// this many unsent reply bytes and resumes below the low watermark.
constexpr size_t kWriteHighWatermark = 1 << 20;
constexpr size_t kWriteLowWatermark = 1 << 18;
}  // namespace

/// Per-connection state, touched only by the event-loop thread.
struct NetDaemon::Connection {
  int fd = -1;
  uint64_t opened_ns = 0;

  // Inbound: unparsed bytes, parse offset.
  std::vector<uint8_t> rbuf;
  size_t rpos = 0;

  // Outbound: replies staged in request order, and how much of them the
  // socket has taken.
  std::vector<uint8_t> wbuf;
  size_t woff = 0;
  bool want_write = false;
  bool paused_read = false;
  /// Fatal protocol error: stop reading, close once the error reply (and
  /// anything before it) has flushed.
  bool close_when_flushed = false;

  size_t unsent() const { return wbuf.size() - woff; }
};

NetDaemon::NetDaemon(ShardedRankServer& server, NetDaemonOptions options)
    : server_(server), opts_(std::move(options)) {
  if (opts_.max_inflight == 0) opts_.max_inflight = 1;
  if (opts_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts_.metrics;
    const std::string p = "net/";
    accepts_ctr_ = &reg.GetCounter(p + "accepts");
    queries_ctr_ = &reg.GetCounter(p + "queries");
    replies_ctr_ = &reg.GetCounter(p + "replies");
    shed_ctr_ = &reg.GetCounter(p + "shed_overloaded");
    draining_ctr_ = &reg.GetCounter(p + "rejected_draining");
    deadline_ctr_ = &reg.GetCounter(p + "deadline_exceeded");
    bad_ctr_ = &reg.GetCounter(p + "bad_frames");
    scrapes_ctr_ = &reg.GetCounter(p + "scrapes");
    health_ctr_ = &reg.GetCounter(p + "health_checks");
    bytes_read_ctr_ = &reg.GetCounter(p + "bytes_read");
    bytes_written_ctr_ = &reg.GetCounter(p + "bytes_written");
    active_gauge_ = &reg.GetGauge(p + "active_conns");
    draining_gauge_ = &reg.GetGauge(p + "draining");
    request_hist_ = &reg.GetHistogram(p + "request_ns");
    read_hist_ = &reg.GetHistogram(p + "read_bytes");
    write_hist_ = &reg.GetHistogram(p + "write_bytes");
    conn_hist_ = &reg.GetHistogram(p + "conn_lifetime_ns");
  }
}

NetDaemon::~NetDaemon() { Stop(); }

void NetDaemon::Start() {
  if (started_.load(std::memory_order_acquire)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw std::runtime_error("net: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bad bind address " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, kListenBacklog) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("net: bind/listen on " + opts_.bind_address + ":" +
                             std::to_string(opts_.port) + " failed: " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    throw std::runtime_error("net: epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  // Created here (not in the constructor) so the loop's serving context is
  // the server's next Rng stream at Start() time — the property the wire
  // bit-equivalence test pins against an in-process reference server.
  ctx_ = server_.CreateContext();

  started_.store(true, std::memory_order_release);
  loop_thread_ = std::thread(&NetDaemon::Loop, this);
}

void NetDaemon::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter (EAGAIN) still wakes the loop; nothing to do.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

bool NetDaemon::Drain() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (!started_.load(std::memory_order_acquire) ||
      torn_down_.load(std::memory_order_acquire)) {
    return true;
  }
  draining_.store(true, std::memory_order_release);
  if (draining_gauge_ != nullptr) draining_gauge_->Set(1.0);
  Wake();
  loop_thread_.join();
  const bool clean = drain_was_clean_;
  JoinAndTearDown();
  return clean;
}

void NetDaemon::Stop() {
  std::lock_guard<std::mutex> lk(lifecycle_mutex_);
  if (!started_.load(std::memory_order_acquire) ||
      torn_down_.load(std::memory_order_acquire)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  Wake();
  loop_thread_.join();
  JoinAndTearDown();
}

void NetDaemon::JoinAndTearDown() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
  torn_down_.store(true, std::memory_order_release);
}

NetDaemonStats NetDaemon::stats() const {
  NetDaemonStats s;
  s.accepts = accepts_.load(std::memory_order_relaxed);
  s.active_connections = active_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.shed_overloaded = shed_overloaded_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.scrapes = scrapes_.load(std::memory_order_relaxed);
  s.health_checks = health_checks_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void NetDaemon::Loop() {
  std::vector<epoll_event> events(64);
  bool drain_seen = false;
  Clock::time_point drain_started{};

  while (!stopping_.load(std::memory_order_acquire)) {
    const bool draining = draining_.load(std::memory_order_acquire);
    if (draining) {
      if (!drain_seen) {
        // Stop accepting, then poll once more before the drain may
        // complete: frames already sitting in a socket get an answer (a
        // QUERY gets DRAINING) instead of a close.
        drain_seen = true;
        drain_started = Clock::now();
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        ::close(listen_fd_);
        listen_fd_ = -1;
      } else if (AllFlushed()) {
        drain_was_clean_ = true;
        break;
      }
      if (opts_.drain_timeout_ms > 0 &&
          Clock::now() - drain_started >
              std::chrono::milliseconds(opts_.drain_timeout_ms)) {
        drain_was_clean_ = false;
        break;
      }
    }

    const int timeout_ms = draining ? 10 : 200;
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptNew();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      std::shared_ptr<Connection> conn = it->second;
      if ((ev & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(fd);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) FlushWrites(conn);
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn->paused_read) {
        HandleReadable(conn);
      }
    }
  }
}

void NetDaemon::AcceptNew() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: move on
    if (connections_.size() >= opts_.max_connections) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    if (conn_hist_ != nullptr) conn->opened_ns = obs::FastNowNs();
    connections_.emplace(fd, conn);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    accepts_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
    if (accepts_ctr_ != nullptr) accepts_ctr_->Add();
    if (active_gauge_ != nullptr) {
      active_gauge_->Set(static_cast<double>(connections_.size()));
    }
  }
}

void NetDaemon::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
  if (conn_hist_ != nullptr && conn->opened_ns != 0) {
    conn_hist_->Record(obs::FastNowNs() - conn->opened_ns);
  }
  if (active_gauge_ != nullptr) {
    active_gauge_->Set(static_cast<double>(connections_.size()));
  }
}

void NetDaemon::HandleReadable(const std::shared_ptr<Connection>& conn) {
  // One read pass. The drain flag is read once, before reading: when no
  // drain had begun, every frame this pass reads is served even if a drain
  // begins meanwhile.
  ReadPass pass;
  pass.draining = draining_.load(std::memory_order_acquire);
  while (true) {
    const size_t old_size = conn->rbuf.size();
    conn->rbuf.resize(old_size + kReadChunk);
    const ssize_t n = ::read(conn->fd, conn->rbuf.data() + old_size, kReadChunk);
    if (n > 0) {
      conn->rbuf.resize(old_size + static_cast<size_t>(n));
      bytes_read_.fetch_add(static_cast<uint64_t>(n),
                            std::memory_order_relaxed);
      if (bytes_read_ctr_ != nullptr) {
        bytes_read_ctr_->Add(static_cast<uint64_t>(n));
      }
      if (read_hist_ != nullptr) read_hist_->Record(static_cast<uint64_t>(n));
      if (static_cast<size_t>(n) < kReadChunk) break;  // drained the socket
      continue;
    }
    conn->rbuf.resize(old_size);
    if (n == 0) {  // peer closed
      CloseConnection(conn->fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn->fd);
    return;
  }
  if (opts_.deadline_us > 0) pass.read_at = Clock::now();
  if (!ParseFrames(*conn, pass)) {
    // Fatal framing error: the error reply is already staged — stop reading
    // and close once it has flushed.
    conn->paused_read = true;
    conn->close_when_flushed = true;
    UpdateEpollInterest(conn);
  }
  FlushWrites(conn);
}

bool NetDaemon::ParseFrames(Connection& conn, ReadPass& pass) {
  while (conn.rbuf.size() - conn.rpos >= kHeaderSize) {
    const uint8_t* base = conn.rbuf.data() + conn.rpos;
    const size_t available = conn.rbuf.size() - conn.rpos;
    FrameHeader header;
    const DecodeStatus status = DecodeHeader(base, available, &header);
    if (status == DecodeStatus::kMalformed) {
      RejectFrame(conn, 0, ErrorCode::kBadFrame, "malformed frame header");
      return false;
    }
    if (status == DecodeStatus::kUnsupportedVersion) {
      RejectFrame(conn, 0, ErrorCode::kUnsupportedVersion,
                  "server speaks version " + std::to_string(kProtocolVersion));
      return false;
    }
    if (available < kHeaderSize + header.payload_len) break;  // incomplete
    const uint8_t* payload = base + kHeaderSize;
    const size_t len = header.payload_len;
    switch (header.type) {
      case FrameType::kQuery: {
        QueryFrame query;
        if (!DecodeQuery(payload, len, &query)) {
          // A 20-byte payload with m = 0 has already yielded its id, so the
          // error echoes it; a payload of the wrong length leaves the
          // default id 0.
          RejectFrame(conn, query.request_id, ErrorCode::kBadFrame,
                      "bad QUERY payload");
        } else if (query.m > opts_.max_query_m) {
          RejectFrame(conn, query.request_id, ErrorCode::kBadFrame,
                      "m exceeds cap " + std::to_string(opts_.max_query_m));
        } else {
          HandleQuery(conn, query, pass);
        }
        break;
      }
      case FrameType::kMetrics: {
        MetricsFrame request;
        if (!DecodeMetrics(payload, len, &request)) {
          RejectFrame(conn, 0, ErrorCode::kBadFrame, "bad METRICS payload");
          break;
        }
        scrapes_.fetch_add(1, std::memory_order_relaxed);
        if (scrapes_ctr_ != nullptr) scrapes_ctr_->Add();
        MetricsReplyFrame reply;
        if (opts_.metrics != nullptr) {
          reply.text = obs::PrometheusText(opts_.metrics->Snapshot());
        }
        AppendMetricsReply(reply, &conn.wbuf);
        break;
      }
      case FrameType::kHealth: {
        HealthFrame request;
        if (!DecodeHealth(payload, len, &request)) {
          RejectFrame(conn, 0, ErrorCode::kBadFrame, "bad HEALTH payload");
          break;
        }
        health_checks_.fetch_add(1, std::memory_order_relaxed);
        if (health_ctr_ != nullptr) health_ctr_->Add();
        HealthReplyFrame reply;
        reply.status =
            pass.draining ? HealthStatus::kDraining : HealthStatus::kServing;
        reply.epoch = server_.epoch();
        reply.queries = replies_.load(std::memory_order_relaxed);
        reply.degraded = server_.degraded();
        reply.stale_epochs = server_.epochs_since_publish();
        AppendHealthReply(reply, &conn.wbuf);
        break;
      }
      default:
        // Reply frames from a client, or an unknown id: the length is
        // known, so skip the payload and keep the connection.
        RejectFrame(conn, 0, ErrorCode::kBadType,
                    std::string("unexpected frame type ") +
                        FrameTypeName(header.type));
        break;
    }
    conn.rpos += kHeaderSize + len;
  }
  if (conn.rpos > 0) {
    conn.rbuf.erase(conn.rbuf.begin(),
                    conn.rbuf.begin() + static_cast<ptrdiff_t>(conn.rpos));
    conn.rpos = 0;
  }
  return true;
}

void NetDaemon::HandleQuery(Connection& conn, const QueryFrame& query,
                            ReadPass& pass) {
  if (pass.draining) {
    rejected_draining_.fetch_add(1, std::memory_order_relaxed);
    if (draining_ctr_ != nullptr) draining_ctr_->Add();
    SendError(conn, query.request_id, ErrorCode::kDraining,
              "server is draining");
    return;
  }
  if (pass.admitted >= opts_.max_inflight) {
    shed_overloaded_.fetch_add(1, std::memory_order_relaxed);
    if (shed_ctr_ != nullptr) shed_ctr_->Add();
    SendError(conn, query.request_id, ErrorCode::kOverloaded,
              "admission control: " + std::to_string(opts_.max_inflight) +
                  " queries already in this read");
    return;
  }
  ++pass.admitted;
  queries_.fetch_add(1, std::memory_order_relaxed);
  if (queries_ctr_ != nullptr) queries_ctr_->Add();
  if (opts_.deadline_us > 0 &&
      Clock::now() - pass.read_at >
          std::chrono::microseconds(opts_.deadline_us)) {
    // Explicit timeout instead of a late answer.
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    if (deadline_ctr_ != nullptr) deadline_ctr_->Add();
    SendError(conn, query.request_id, ErrorCode::kDeadlineExceeded,
              "query deadline expired before serving");
    return;
  }

  const uint64_t t0 = request_hist_ != nullptr ? obs::FastNowNs() : 0;
  batch_.m = query.m;
  server_.ServeBatch(ctx_, &batch_);
  std::vector<uint32_t>& pages = batch_.results[0];
  QueryReplyFrame reply;
  reply.request_id = query.request_id;
  reply.epoch = batch_.epoch;  // the pinned view's, not the live counter
  reply.pages.swap(pages);
  AppendQueryReply(reply, &conn.wbuf);
  reply.pages.swap(pages);  // hand the buffer back for the next query
  replies_.fetch_add(1, std::memory_order_relaxed);
  if (replies_ctr_ != nullptr) replies_ctr_->Add();
  if (request_hist_ != nullptr) {
    const uint64_t dur_ns = obs::FastNowNs() - t0;
    request_hist_->Record(dur_ns);
    obs::TraceLog* trace = opts_.trace;
    if (trace != nullptr && trace->sample_every() > 0 &&
        request_seq_++ % trace->sample_every() == 0) {
      trace->EmitSpan("net/request", static_cast<double>(dur_ns) * 1e-3,
                      {{"m", static_cast<double>(query.m)},
                       {"served", static_cast<double>(pages.size())}});
    }
  }
}

void NetDaemon::SendError(Connection& conn, uint64_t request_id,
                          ErrorCode code, const std::string& message) {
  ErrorFrame frame;
  frame.request_id = request_id;
  frame.code = code;
  frame.message = message;
  AppendError(frame, &conn.wbuf);
}

void NetDaemon::RejectFrame(Connection& conn, uint64_t request_id,
                            ErrorCode code, const std::string& message) {
  bad_frames_.fetch_add(1, std::memory_order_relaxed);
  if (bad_ctr_ != nullptr) bad_ctr_->Add();
  SendError(conn, request_id, code, message);
}

void NetDaemon::FlushWrites(const std::shared_ptr<Connection>& conn) {
  while (conn->woff < conn->wbuf.size()) {
    size_t want = conn->wbuf.size() - conn->woff;
    // Fault site: partial writes (short-write path coverage), injected
    // connection resets, and slow writes on the reply stream. Event-loop
    // thread only, like every real write here.
    {
      static constexpr uint64_t kHash = fault::Hash(fault::kNetWrite);
      fault::Decision decision;
      if (fault::Check(fault::kNetWrite, kHash, /*epoch=*/0, &decision)) {
        switch (decision.action) {
          case fault::Action::kDelay:
            fault::ApplyDelay(decision);
            break;
          case fault::Action::kPartialWrite:
            want = std::min<size_t>(
                want, static_cast<size_t>(std::max<uint64_t>(1, decision.bytes)));
            break;
          case fault::Action::kReset:
          case fault::Action::kFail:
            // Hard-close mid-stream: the peer sees EOF/ECONNRESET with the
            // reply possibly half-written — exactly the failure a retrying
            // client must survive.
            CloseConnection(conn->fd);
            return;
        }
      }
    }
    const ssize_t n = ::write(conn->fd, conn->wbuf.data() + conn->woff, want);
    if (n > 0) {
      conn->woff += static_cast<size_t>(n);
      bytes_written_.fetch_add(static_cast<uint64_t>(n),
                               std::memory_order_relaxed);
      if (bytes_written_ctr_ != nullptr) {
        bytes_written_ctr_->Add(static_cast<uint64_t>(n));
      }
      if (write_hist_ != nullptr) write_hist_->Record(static_cast<uint64_t>(n));
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn->fd);
    return;
  }
  if (conn->woff == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->woff = 0;
  }
  if (conn->close_when_flushed && conn->unsent() == 0) {
    CloseConnection(conn->fd);
    return;
  }
  UpdateEpollInterest(conn);
}

void NetDaemon::UpdateEpollInterest(const std::shared_ptr<Connection>& conn) {
  const size_t unsent = conn->unsent();
  const bool want_write = unsent > 0;
  bool paused = conn->paused_read;
  if (!conn->close_when_flushed) {
    // Write backpressure: a reader slower than its replies stops being read
    // (its queries back up into its kernel socket buffer and TCP window).
    if (!paused && unsent >= kWriteHighWatermark) paused = true;
    if (paused && unsent < kWriteLowWatermark) paused = false;
  }
  if (want_write == conn->want_write && paused == conn->paused_read) return;
  conn->want_write = want_write;
  conn->paused_read = paused;
  epoll_event ev{};
  ev.events = (paused ? 0u : (EPOLLIN | EPOLLRDHUP)) |
              (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

bool NetDaemon::AllFlushed() const {
  for (const auto& [fd, conn] : connections_) {
    if (conn->unsent() > 0) return false;
  }
  return true;
}

}  // namespace randrank::net
