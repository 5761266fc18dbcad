// Network layer tests: wire-protocol round-trips and malformed-input
// rejection (the mechanical check behind docs/PROTOCOL.md), and the daemon's
// service guarantees through real loopback sockets — bit-equivalence with
// the in-process serve path, replies in request order, explicit OVERLOADED
// shedding, graceful drain, and epoch publishes / policy hot-swaps under
// live connections (the CI TSan job runs this binary for the race
// coverage).

#include "net/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/policy/policy_factory.h"
#include "core/policy/promotion_policy.h"
#include "core/ranking_policy.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/daemon.h"
#include "obs/metrics.h"
#include "serve/sharded_rank_server.h"
#include "util/rng.h"

#include "serve_fixture.h"

namespace randrank::net {
namespace {

using testutil::Fixture;

// --- Protocol round-trips -------------------------------------------------

// Every frame type in kAllFrameTypes encodes and decodes back to itself.
// The switch is exhaustive over the array, so adding a frame type to
// protocol.h without extending this test fails here.
TEST(ProtocolTest, RoundTripsEveryFrameType) {
  for (const FrameType type : kAllFrameTypes) {
    std::vector<uint8_t> bytes;
    switch (type) {
      case FrameType::kQuery: {
        QueryFrame in;
        in.request_id = 0x0123456789abcdefULL;
        in.user_id = 42;
        in.m = 10;
        AppendQuery(in, &bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        ASSERT_EQ(bytes.size(), kHeaderSize + header.payload_len);
        QueryFrame out;
        ASSERT_TRUE(DecodeQuery(bytes.data() + kHeaderSize, header.payload_len,
                                &out));
        EXPECT_EQ(out.request_id, in.request_id);
        EXPECT_EQ(out.user_id, in.user_id);
        EXPECT_EQ(out.m, in.m);
        break;
      }
      case FrameType::kQueryReply: {
        QueryReplyFrame in;
        in.request_id = 7;
        in.epoch = 12;
        in.pages = {3, 1, 4, 1, 5};
        AppendQueryReply(in, &bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        QueryReplyFrame out;
        ASSERT_TRUE(DecodeQueryReply(bytes.data() + kHeaderSize,
                                     header.payload_len, &out));
        EXPECT_EQ(out.request_id, in.request_id);
        EXPECT_EQ(out.epoch, in.epoch);
        EXPECT_EQ(out.pages, in.pages);
        break;
      }
      case FrameType::kMetrics: {
        AppendMetrics(&bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        EXPECT_EQ(header.payload_len, 0u);
        MetricsFrame out;
        EXPECT_TRUE(DecodeMetrics(bytes.data() + kHeaderSize, 0, &out));
        break;
      }
      case FrameType::kMetricsReply: {
        MetricsReplyFrame in;
        in.text = "# TYPE net_queries_total counter\nnet_queries_total 5\n";
        AppendMetricsReply(in, &bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        MetricsReplyFrame out;
        ASSERT_TRUE(DecodeMetricsReply(bytes.data() + kHeaderSize,
                                       header.payload_len, &out));
        EXPECT_EQ(out.text, in.text);
        break;
      }
      case FrameType::kHealth: {
        AppendHealth(&bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        EXPECT_EQ(header.payload_len, 0u);
        HealthFrame out;
        EXPECT_TRUE(DecodeHealth(bytes.data() + kHeaderSize, 0, &out));
        break;
      }
      case FrameType::kHealthReply: {
        HealthReplyFrame in;
        in.status = HealthStatus::kDraining;
        in.epoch = 99;
        in.inflight = 3;
        in.queries = 1234;
        in.degraded = true;
        in.stale_epochs = 7;
        AppendHealthReply(in, &bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        HealthReplyFrame out;
        ASSERT_TRUE(DecodeHealthReply(bytes.data() + kHeaderSize,
                                      header.payload_len, &out));
        EXPECT_EQ(out.status, in.status);
        EXPECT_EQ(out.epoch, in.epoch);
        EXPECT_EQ(out.inflight, in.inflight);
        EXPECT_EQ(out.queries, in.queries);
        EXPECT_EQ(out.degraded, in.degraded);
        EXPECT_EQ(out.stale_epochs, in.stale_epochs);
        break;
      }
      case FrameType::kError: {
        ErrorFrame in;
        in.request_id = 21;
        in.code = ErrorCode::kOverloaded;
        in.message = "admission control";
        AppendError(in, &bytes);
        FrameHeader header;
        ASSERT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
                  DecodeStatus::kOk);
        ASSERT_EQ(header.type, type);
        ErrorFrame out;
        ASSERT_TRUE(DecodeError(bytes.data() + kHeaderSize, header.payload_len,
                                &out));
        EXPECT_EQ(out.request_id, in.request_id);
        EXPECT_EQ(out.code, in.code);
        EXPECT_EQ(out.message, in.message);
        break;
      }
    }
    ASSERT_FALSE(bytes.empty()) << FrameTypeName(type);
  }
}

// The exact on-wire bytes of a QUERY, pinning the little-endian layout
// documented in docs/PROTOCOL.md independent of host byte order.
TEST(ProtocolTest, QueryWireLayoutIsLittleEndian) {
  QueryFrame frame;
  frame.request_id = 0x1122334455667788ULL;
  frame.user_id = 0x99;
  frame.m = 0x0102;
  std::vector<uint8_t> bytes;
  AppendQuery(frame, &bytes);
  const uint8_t expected[] = {
      20,   0,    0,    0,     // payload_len = 20
      0x52,                    // magic 'R'
      1,                       // version
      0x01,                    // type QUERY
      0,                       // flags
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // request_id LE
      0x99, 0,    0,    0,    0,    0,    0,    0,     // user_id LE
      0x02, 0x01, 0,    0,     // m LE
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof(expected)), 0);
}

// The exact on-wire bytes of a QUERY_REPLY, appended after bytes already in
// the buffer (the daemon stages replies back to back in one write buffer).
TEST(ProtocolTest, QueryReplyWireLayoutIsLittleEndian) {
  QueryReplyFrame frame;
  frame.request_id = 0x0102030405060708ULL;
  frame.epoch = 0xa0b0c0d0e0f00011ULL;
  frame.pages = {0x11223344u, 7u};
  std::vector<uint8_t> bytes = {0xee};
  AppendQueryReply(frame, &bytes);
  const uint8_t expected[] = {
      0xee,                    // earlier bytes stay untouched
      28,   0,    0,    0,     // payload_len = 20 + 4 * 2
      0x52,                    // magic 'R'
      1,                       // version
      0x81,                    // type QUERY_REPLY
      0,                       // flags
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request_id LE
      0x11, 0x00, 0xf0, 0xe0, 0xd0, 0xc0, 0xb0, 0xa0,  // epoch LE
      2,    0,    0,    0,     // page count LE
      0x44, 0x33, 0x22, 0x11,  // pages[0] LE
      7,    0,    0,    0,     // pages[1] LE
  };
  ASSERT_EQ(bytes.size(), sizeof(expected));
  EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof(expected)), 0);
}

TEST(ProtocolTest, HeaderRejectsMalformedAndForeignVersions) {
  std::vector<uint8_t> bytes;
  AppendHealth(&bytes);
  FrameHeader header;

  EXPECT_EQ(DecodeHeader(bytes.data(), kHeaderSize - 1, &header),
            DecodeStatus::kNeedMore);

  std::vector<uint8_t> bad = bytes;
  bad[4] = 0x51;  // wrong magic
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), &header),
            DecodeStatus::kMalformed);

  bad = bytes;
  bad[7] = 1;  // nonzero flags
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), &header),
            DecodeStatus::kMalformed);

  bad = bytes;
  bad[3] = 0xFF;  // payload_len far beyond kMaxPayload
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), &header),
            DecodeStatus::kMalformed);

  bad = bytes;
  bad[5] = kProtocolVersion + 1;
  EXPECT_EQ(DecodeHeader(bad.data(), bad.size(), &header),
            DecodeStatus::kUnsupportedVersion);
  EXPECT_EQ(header.version, kProtocolVersion + 1);  // still parsed
}

TEST(ProtocolTest, PayloadDecodersRejectMalformedInput) {
  // QUERY: wrong length, zero m, trailing bytes.
  QueryFrame query;
  {
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{1, 2, 3}, &bytes);
    const uint8_t* payload = bytes.data() + kHeaderSize;
    EXPECT_TRUE(DecodeQuery(payload, 20, &query));
    EXPECT_FALSE(DecodeQuery(payload, 19, &query));
    EXPECT_FALSE(DecodeQuery(payload, 21, &query));
  }
  {
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{1, 2, 0}, &bytes);  // m == 0 is malformed
    EXPECT_FALSE(DecodeQuery(bytes.data() + kHeaderSize, 20, &query));
  }

  // QUERY_REPLY: count must match the remaining bytes exactly.
  {
    QueryReplyFrame reply;
    reply.pages = {1, 2, 3};
    std::vector<uint8_t> bytes;
    AppendQueryReply(reply, &bytes);
    uint8_t* payload = bytes.data() + kHeaderSize;
    const size_t len = bytes.size() - kHeaderSize;
    QueryReplyFrame out;
    EXPECT_TRUE(DecodeQueryReply(payload, len, &out));
    EXPECT_FALSE(DecodeQueryReply(payload, len - 4, &out));  // truncated
    payload[16] += 1;  // count says 4, only 3 present
    EXPECT_FALSE(DecodeQueryReply(payload, len, &out));
  }

  // METRICS / HEALTH requests must be empty.
  {
    MetricsFrame metrics;
    HealthFrame health;
    const uint8_t junk[1] = {0};
    EXPECT_FALSE(DecodeMetrics(junk, 1, &metrics));
    EXPECT_FALSE(DecodeHealth(junk, 1, &health));
  }

  // METRICS_REPLY: text_len must match exactly.
  {
    MetricsReplyFrame reply;
    reply.text = "abc";
    std::vector<uint8_t> bytes;
    AppendMetricsReply(reply, &bytes);
    const uint8_t* payload = bytes.data() + kHeaderSize;
    const size_t len = bytes.size() - kHeaderSize;
    MetricsReplyFrame out;
    EXPECT_TRUE(DecodeMetricsReply(payload, len, &out));
    EXPECT_FALSE(DecodeMetricsReply(payload, len - 1, &out));
    EXPECT_FALSE(DecodeMetricsReply(payload, 3, &out));
  }

  // HEALTH_REPLY: length 34, a known status byte, and a 0/1 degraded flag.
  {
    HealthReplyFrame reply;
    std::vector<uint8_t> bytes;
    AppendHealthReply(reply, &bytes);
    uint8_t* payload = bytes.data() + kHeaderSize;
    HealthReplyFrame out;
    EXPECT_TRUE(DecodeHealthReply(payload, 34, &out));
    EXPECT_FALSE(DecodeHealthReply(payload, 33, &out));
    EXPECT_FALSE(DecodeHealthReply(payload, 25, &out));  // pre-degraded size
    payload[25] = 2;  // degraded must be 0 or 1
    EXPECT_FALSE(DecodeHealthReply(payload, 34, &out));
    payload[25] = 0;
    payload[0] = 99;  // unknown HealthStatus
    EXPECT_FALSE(DecodeHealthReply(payload, 34, &out));
  }

  // ERROR: out-of-range code, message_len mismatch.
  {
    ErrorFrame frame;
    frame.code = ErrorCode::kDraining;
    frame.message = "x";
    std::vector<uint8_t> bytes;
    AppendError(frame, &bytes);
    uint8_t* payload = bytes.data() + kHeaderSize;
    const size_t len = bytes.size() - kHeaderSize;
    ErrorFrame out;
    EXPECT_TRUE(DecodeError(payload, len, &out));
    EXPECT_FALSE(DecodeError(payload, len - 1, &out));
    payload[8] = 0;  // code 0 is reserved/invalid
    EXPECT_FALSE(DecodeError(payload, len, &out));
    payload[8] = 6;  // DEADLINE_EXCEEDED, the highest defined code
    EXPECT_TRUE(DecodeError(payload, len, &out));
    EXPECT_EQ(out.code, ErrorCode::kDeadlineExceeded);
    payload[8] = 7;  // one past the last defined code
    EXPECT_FALSE(DecodeError(payload, len, &out));
  }
}

// Mutation fuzz: random single-byte corruptions of valid frames, and pure
// garbage, must always parse-or-reject — never crash or over-read (ASan/TSan
// builds give this teeth).
TEST(ProtocolTest, FuzzedInputParsesOrRejects) {
  Rng rng(2026);
  std::vector<uint8_t> valid;
  QueryReplyFrame reply;
  reply.request_id = 5;
  reply.pages = {10, 20, 30, 40};
  AppendQueryReply(reply, &valid);

  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> bytes = valid;
    const size_t flips = 1 + rng.NextIndex(4);
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng.NextIndex(bytes.size())] =
          static_cast<uint8_t>(rng.NextIndex(256));
    }
    FrameHeader header;
    const DecodeStatus status = DecodeHeader(bytes.data(), bytes.size(),
                                             &header);
    if (status != DecodeStatus::kOk) continue;
    if (bytes.size() < kHeaderSize + header.payload_len) continue;
    const uint8_t* payload = bytes.data() + kHeaderSize;
    const size_t len = header.payload_len;
    // Whatever the (possibly corrupted) type claims, decoding must stay in
    // bounds; the return value is free to be either.
    QueryFrame q;
    QueryReplyFrame qr;
    MetricsFrame mf;
    MetricsReplyFrame mr;
    HealthFrame hf;
    HealthReplyFrame hr;
    ErrorFrame ef;
    switch (header.type) {
      case FrameType::kQuery: DecodeQuery(payload, len, &q); break;
      case FrameType::kQueryReply: DecodeQueryReply(payload, len, &qr); break;
      case FrameType::kMetrics: DecodeMetrics(payload, len, &mf); break;
      case FrameType::kMetricsReply:
        DecodeMetricsReply(payload, len, &mr);
        break;
      case FrameType::kHealth: DecodeHealth(payload, len, &hf); break;
      case FrameType::kHealthReply: DecodeHealthReply(payload, len, &hr); break;
      case FrameType::kError: DecodeError(payload, len, &ef); break;
      default: break;  // unknown type: length-skippable by design
    }
  }

  // Pure garbage headers.
  for (int iter = 0; iter < 20000; ++iter) {
    uint8_t garbage[kHeaderSize];
    for (uint8_t& b : garbage) b = static_cast<uint8_t>(rng.NextIndex(256));
    FrameHeader header;
    DecodeHeader(garbage, sizeof(garbage), &header);
  }

  // Truncated frames: every proper prefix must ask for more bytes (short
  // header) or fail the payload decoder cleanly — never over-read.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    FrameHeader header;
    const DecodeStatus status = DecodeHeader(valid.data(), cut, &header);
    if (cut < kHeaderSize) {
      EXPECT_EQ(status, DecodeStatus::kNeedMore);
      continue;
    }
    ASSERT_EQ(status, DecodeStatus::kOk);
    QueryReplyFrame out;
    EXPECT_FALSE(
        DecodeQueryReply(valid.data() + kHeaderSize, cut - kHeaderSize, &out));
  }

  // Oversized declared length: payload_len beyond kMaxPayload is malformed
  // at the header, so a hostile frame cannot make the server buffer
  // unbounded input; exactly kMaxPayload stays within bounds.
  {
    std::vector<uint8_t> bytes = valid;
    const uint32_t huge = kMaxPayload + 1;
    bytes[0] = static_cast<uint8_t>(huge);
    bytes[1] = static_cast<uint8_t>(huge >> 8);
    bytes[2] = static_cast<uint8_t>(huge >> 16);
    bytes[3] = static_cast<uint8_t>(huge >> 24);
    FrameHeader header;
    EXPECT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
              DecodeStatus::kMalformed);
    const uint32_t cap = kMaxPayload;
    bytes[0] = static_cast<uint8_t>(cap);
    bytes[1] = static_cast<uint8_t>(cap >> 8);
    bytes[2] = static_cast<uint8_t>(cap >> 16);
    bytes[3] = static_cast<uint8_t>(cap >> 24);
    EXPECT_EQ(DecodeHeader(bytes.data(), bytes.size(), &header),
              DecodeStatus::kOk);
    EXPECT_EQ(header.payload_len, kMaxPayload);
  }

  // A count field overstating the carried payload fails the decoder instead
  // of reading past the buffer.
  {
    std::vector<uint8_t> bytes = valid;
    uint8_t* payload = bytes.data() + kHeaderSize;
    payload[16] = 0xff;
    payload[17] = 0xff;
    payload[18] = 0xff;
    payload[19] = 0x7f;
    QueryReplyFrame out;
    EXPECT_FALSE(DecodeQueryReply(payload, bytes.size() - kHeaderSize, &out));
  }
}

// --- Daemon over loopback sockets -----------------------------------------

struct DaemonHarness {
  explicit DaemonHarness(size_t n = 2000, NetDaemonOptions options = {},
                         uint64_t seed = 5)
      : fixture(n, 50, seed) {
    ServeOptions sopts;
    sopts.shards = 4;
    sopts.seed = 11;
    // One registry for every layer, as tools/randrankd wires it.
    sopts.metrics = options.metrics;
    server = std::make_unique<ShardedRankServer>(
        MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), n, sopts);
    server->Update(fixture.popularity, fixture.zero, fixture.birth);
    daemon = std::make_unique<NetDaemon>(*server, options);
    daemon->Start();
  }

  Fixture fixture;
  std::unique_ptr<ShardedRankServer> server;
  std::unique_ptr<NetDaemon> daemon;
};

// Installs a fault plan whose `serve.query` delay holds the event loop
// inside the first query it serves, so frames sent meanwhile wait in the
// socket.
struct LoopHold {
  explicit LoopHold(uint64_t delay_us)
      : injector(Plan(delay_us)), scoped(&injector) {}

  static fault::FaultPlan Plan(uint64_t delay_us) {
    fault::FaultPlan plan;
    EXPECT_TRUE(fault::FaultPlan::Parse(
        "point=serve.query,action=delay,nth=1,delay_us=" +
            std::to_string(delay_us),
        &plan, nullptr));
    return plan;
  }

  // True once the loop is inside the held query (polls up to 5 s).
  bool WaitUntilHeld() const {
    for (int i = 0; i < 5000 && fired() == 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fired() == 1;
  }

  uint64_t fired() const { return injector.fired(fault::kServeQuery); }

  fault::FaultInjector injector;
  fault::ScopedFaultInjector scoped;
};

// A query through the socket is answered bit-identically to the in-process
// serve path: the daemon's serving context is the server's next
// CreateContext() Rng stream, and ServeBatch == sequential ServeTopM. A
// reference server built identically answers the same m-sequence in
// process; the wire adds framing, not distribution drift.
TEST(NetDaemonTest, SocketRepliesAreBitIdenticalToInProcess) {
  const size_t kN = 2000;
  Fixture fixture(kN, 50);

  ServeOptions sopts;
  sopts.shards = 4;
  sopts.seed = 11;
  ShardedRankServer reference(
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2)), kN, sopts);
  reference.Update(fixture.popularity, fixture.zero, fixture.birth);
  auto ref_ctx = reference.CreateContext();

  DaemonHarness harness(kN);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));

  Rng rng(99);
  for (int q = 0; q < 50; ++q) {
    const size_t m = 1 + rng.NextIndex(20);
    std::vector<uint32_t> expected;
    reference.ServeTopM(ref_ctx, m, &expected);

    NetClient::QueryResult result;
    ASSERT_EQ(client.Query(static_cast<uint32_t>(m), q, &result),
              NetClient::Status::kOk);
    EXPECT_EQ(result.epoch, 1u);
    ASSERT_EQ(result.pages, expected) << "diverged at query " << q;
  }
  EXPECT_TRUE(harness.daemon->Drain());
}

// QUERY frames past max_inflight in one read pass get explicit OVERLOADED
// errors, promptly and in order — never a hang, never a dropped frame. The
// loop is held inside a first query while 64 frames arrive in one write, so
// the daemon reads all 64 in one pass.
TEST(NetDaemonTest, OverloadShedsWithExplicitReply) {
  NetDaemonOptions options;
  options.max_inflight = 4;
  DaemonHarness harness(2000, options);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
  LoopHold hold(200000);
  uint64_t hold_id = 0;
  ASSERT_TRUE(client.SendQuery(10, 0, &hold_id));
  ASSERT_TRUE(hold.WaitUntilHeld());
  const int kFlood = 64;
  std::vector<uint8_t> flood;
  for (int q = 0; q < kFlood; ++q) {
    AppendQuery(QueryFrame{1000u + q, static_cast<uint64_t>(q), 10}, &flood);
  }
  ASSERT_TRUE(client.SendRaw(flood));

  NetClient::QueryResult result;
  uint64_t id = 0;
  ASSERT_EQ(client.ReadReply(&result, &id), NetClient::Status::kOk);
  EXPECT_EQ(id, hold_id);
  for (int q = 0; q < kFlood; ++q) {
    const NetClient::Status status = client.ReadReply(&result, &id);
    EXPECT_EQ(id, 1000u + q) << "at reply " << q;
    if (q < 4) {
      ASSERT_EQ(status, NetClient::Status::kOk) << "at reply " << q;
      EXPECT_EQ(result.pages.size(), 10u);
    } else {
      ASSERT_EQ(status, NetClient::Status::kOverloaded) << "at reply " << q;
    }
  }
  EXPECT_EQ(harness.daemon->stats().shed_overloaded, 60u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// Clients shed at the same moment must not retry in lockstep. kClients
// connections are open when the loop is held inside a query and a drain
// starts; every client then sends one QueryWithRetry, so each first attempt
// is read after the drain began and shed (ERROR/DRAINING, or a closed
// connection once the drain finished). The daemon's overload cap counts
// per connection read pass, so a one-query client is shed this way, not by
// OVERLOADED. The first-retry sleeps must spread over at least a quarter of
// the 10 ms first backoff. They are read from the schedule each client
// computed, not from send times, so thread scheduling cannot decide the
// outcome; with independent coins, 32 clients miss the spread with odds
// near 1e-8.
TEST(NetDaemonTest, ShedClientsSpreadTheirFirstRetry) {
  DaemonHarness harness(2000);
  const size_t kClients = 32;
  std::vector<std::unique_ptr<NetClient>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<NetClient>());
    ASSERT_TRUE(clients.back()->Connect("127.0.0.1", harness.daemon->port(),
                                        10));
    ASSERT_EQ(clients.back()->Health(nullptr), NetClient::Status::kOk);
  }
  NetClient holder;
  ASSERT_TRUE(holder.Connect("127.0.0.1", harness.daemon->port(), 10));
  LoopHold hold(200000);
  ASSERT_TRUE(holder.SendQuery(10, 0, nullptr));
  ASSERT_TRUE(hold.WaitUntilHeld());
  std::thread drainer([&] { harness.daemon->Drain(); });
  while (!harness.daemon->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::vector<NetClient::Status> statuses(kClients);
  std::vector<std::thread> senders;
  for (size_t i = 0; i < kClients; ++i) {
    senders.emplace_back([&, i] {
      NetClient::QueryResult result;
      statuses[i] = clients[i]->QueryWithRetry(10, 100 + i, &result);
    });
  }
  for (std::thread& sender : senders) sender.join();
  drainer.join();

  double lo = 1e9;
  double hi = -1e9;
  for (size_t i = 0; i < kClients; ++i) {
    EXPECT_NE(statuses[i], NetClient::Status::kOk) << "client " << i;
    const std::vector<double>& sleeps = clients[i]->last_retry_sleeps_ms();
    ASSERT_FALSE(sleeps.empty()) << "client " << i << " never retried";
    EXPECT_GT(sleeps[0], 5.0 - 1e-9);
    EXPECT_LE(sleeps[0], 10.0);
    lo = std::min(lo, sleeps[0]);
    hi = std::max(hi, sleeps[0]);
  }
  EXPECT_GE(hi - lo, 2.5) << "first retries within " << hi - lo << " ms";
}

// Graceful drain: frames read before the loop saw the drain complete and
// flush; a query arriving mid-drain gets ERROR/DRAINING; the connection then
// sees EOF. The loop is held inside the first of 8 queries (sent in one
// write, so one read pass holds all 8) while the drain starts and the late
// query arrives.
TEST(NetDaemonTest, DrainCompletesInFlightAndRejectsNew) {
  DaemonHarness harness(2000);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
  LoopHold hold(300000);
  const int kInFlight = 8;
  std::vector<uint8_t> burst;
  for (int q = 0; q < kInFlight; ++q) {
    AppendQuery(QueryFrame{1000u + q, static_cast<uint64_t>(q), 10}, &burst);
  }
  ASSERT_TRUE(client.SendRaw(burst));
  ASSERT_TRUE(hold.WaitUntilHeld());

  std::atomic<bool> drain_clean{false};
  std::thread drainer(
      [&] { drain_clean.store(harness.daemon->Drain()); });
  while (!harness.daemon->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  uint64_t late_id = 0;
  const bool late_sent = client.SendQuery(10, 999, &late_id);

  std::vector<NetClient::Status> statuses;
  std::vector<uint64_t> ids;
  std::vector<size_t> sizes;
  for (int q = 0; q < kInFlight + 1; ++q) {
    NetClient::QueryResult result;
    uint64_t id = 0;
    statuses.push_back(client.ReadReply(&result, &id));
    ids.push_back(id);
    sizes.push_back(result.pages.size());
  }
  // The daemon closed everything after the clean drain.
  const bool eof = !client.ReadFrameRaw(nullptr, nullptr);
  drainer.join();

  ASSERT_TRUE(late_sent);
  for (int q = 0; q < kInFlight; ++q) {  // every accepted query completed
    EXPECT_EQ(statuses[q], NetClient::Status::kOk) << "at reply " << q;
    EXPECT_EQ(ids[q], 1000u + q);
    EXPECT_EQ(sizes[q], 10u);
  }
  // The late one was rejected, not dropped, and answered last.
  EXPECT_EQ(statuses[kInFlight], NetClient::Status::kDraining);
  EXPECT_EQ(ids[kInFlight], late_id);
  EXPECT_TRUE(drain_clean.load());
  EXPECT_TRUE(eof);
  EXPECT_EQ(hold.fired(), 1u);
}

// A connection's replies leave in request order whatever their kind: a
// HEALTH, a refused QUERY, and a METRICS pipelined behind a slow QUERY are
// answered after it, not ahead of it.
TEST(NetDaemonTest, PipelinedRepliesArriveInRequestOrder) {
  DaemonHarness harness(2000);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
  LoopHold hold(50000);

  std::vector<uint8_t> bytes;
  AppendQuery(QueryFrame{1, 1, 10}, &bytes);
  AppendHealth(&bytes);
  AppendQuery(QueryFrame{2, 2, 100000}, &bytes);  // m over the cap
  AppendMetrics(&bytes);
  AppendQuery(QueryFrame{3, 3, 10}, &bytes);
  ASSERT_TRUE(client.SendRaw(bytes));

  FrameHeader header;
  std::vector<uint8_t> payload;
  QueryReplyFrame reply;
  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kQueryReply);
  ASSERT_TRUE(DecodeQueryReply(payload.data(), payload.size(), &reply));
  EXPECT_EQ(reply.request_id, 1u);

  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kHealthReply);

  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kError);
  ErrorFrame error;
  ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
  EXPECT_EQ(error.request_id, 2u);
  EXPECT_EQ(error.code, ErrorCode::kBadFrame);

  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kMetricsReply);

  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  ASSERT_EQ(header.type, FrameType::kQueryReply);
  ASSERT_TRUE(DecodeQueryReply(payload.data(), payload.size(), &reply));
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_EQ(reply.pages.size(), 10u);
  EXPECT_EQ(hold.fired(), 1u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// Epoch publishes and policy hot-swaps land under live socket traffic with
// zero dropped or failed queries (the TSan job's race case): a writer
// thread republishes with an alternating policy while client threads hammer
// the socket.
TEST(NetDaemonTest, HotSwapAndPublishUnderLiveConnections) {
  DaemonHarness harness(2000);
  auto selective =
      MakePromotionPolicy(RankPromotionConfig::Selective(0.3, 2));
  auto uniform = MakePromotionPolicy(RankPromotionConfig::Uniform(0.2, 2));

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int e = 0; e < 40; ++e) {
      harness.server->Update(harness.fixture.popularity, harness.fixture.zero,
                             harness.fixture.birth,
                             (e % 2 == 0) ? uniform : selective);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    writer_done.store(true);
  });

  const int kClients = 2;
  std::vector<std::thread> clients;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> max_epoch{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect("127.0.0.1", harness.daemon->port(), 10)) {
        failed.fetch_add(1);
        return;
      }
      uint64_t queries = 0;
      while (!writer_done.load() || queries < 100) {
        NetClient::QueryResult result;
        if (client.Query(10, c * 1000 + queries, &result) !=
                NetClient::Status::kOk ||
            result.pages.size() != 10) {
          failed.fetch_add(1);
          return;
        }
        uint64_t seen = max_epoch.load();
        while (result.epoch > seen &&
               !max_epoch.compare_exchange_weak(seen, result.epoch)) {
        }
        ++queries;
        served.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  writer.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GE(served.load(), static_cast<uint64_t>(kClients) * 100);
  EXPECT_GT(max_epoch.load(), 1u);  // replies observed post-swap epochs
  EXPECT_TRUE(harness.daemon->Drain());
  const NetDaemonStats stats = harness.daemon->stats();
  EXPECT_EQ(stats.replies, served.load());
  EXPECT_EQ(stats.shed_overloaded, 0u);
}

// METRICS answers the registry's Prometheus exposition; HEALTH reports
// serving status, epoch, and reply count.
TEST(NetDaemonTest, MetricsScrapeAndHealthOverTheWire) {
  obs::MetricsRegistry registry;
  NetDaemonOptions options;
  options.metrics = &registry;
  DaemonHarness harness(2000, options);

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
  NetClient::QueryResult result;
  ASSERT_EQ(client.Query(10, 1, &result), NetClient::Status::kOk);

  std::string text;
  ASSERT_EQ(client.Scrape(&text), NetClient::Status::kOk);
  EXPECT_NE(text.find("# TYPE net_queries_total counter"), std::string::npos);
  EXPECT_NE(text.find("net_replies_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE net_request_ns histogram"), std::string::npos);
  // Every subsystem sharing the registry shows over the wire: the harness
  // server records into the daemon's registry.
  EXPECT_NE(text.find("# TYPE serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("serve_queries_total 1"), std::string::npos);

  HealthReplyFrame health;
  ASSERT_EQ(client.Health(&health), NetClient::Status::kOk);
  EXPECT_EQ(health.status, HealthStatus::kServing);
  EXPECT_EQ(health.epoch, 1u);
  EXPECT_EQ(health.queries, 1u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// Protocol violations against the live daemon: garbage gets ERROR/BAD_FRAME
// then close; a foreign version gets ERROR/UNSUPPORTED_VERSION then close;
// an unknown-but-well-framed type gets ERROR/BAD_TYPE and the connection
// survives.
TEST(NetDaemonTest, ViolationsGetExplicitErrorsNotHangs) {
  DaemonHarness harness(2000);

  {  // Garbage: bad magic is fatal.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    ASSERT_TRUE(client.SendRaw({'G', 'E', 'T', ' ', '/', ' ', 'H', 'T'}));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadFrame);
    EXPECT_FALSE(client.ReadFrameRaw(nullptr, nullptr));  // then EOF
  }

  {  // Foreign version: rejection-based negotiation.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    std::vector<uint8_t> bytes;
    AppendHealth(&bytes);
    bytes[5] = kProtocolVersion + 1;
    ASSERT_TRUE(client.SendRaw(bytes));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kUnsupportedVersion);
    EXPECT_NE(error.message.find(std::to_string(kProtocolVersion)),
              std::string::npos);
    EXPECT_FALSE(client.ReadFrameRaw(nullptr, nullptr));
  }

  {  // Unknown type with a valid header: skippable, connection survives.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    std::vector<uint8_t> bytes;
    AppendHealth(&bytes);
    bytes[6] = 0x42;  // no such FrameType
    ASSERT_TRUE(client.SendRaw(bytes));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadType);

    NetClient::QueryResult result;  // still serving this connection
    EXPECT_EQ(client.Query(10, 1, &result), NetClient::Status::kOk);
  }

  {  // Bad QUERY payload (m == 0): error with the id echoed, connection
     // survives.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{1, 2, 3}, &bytes);
    bytes[kHeaderSize + 16] = 0;  // m -> 0
    ASSERT_TRUE(client.SendRaw(bytes));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadFrame);
    EXPECT_EQ(error.request_id, 1u);
    NetClient::QueryResult result;
    EXPECT_EQ(client.Query(10, 1, &result), NetClient::Status::kOk);
  }

  {  // QUERY payload of the wrong length: no id to echo, so id 0.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{5, 2, 3}, &bytes);
    bytes.push_back(0);
    bytes[0] = 21;  // payload_len 20 -> 21
    ASSERT_TRUE(client.SendRaw(bytes));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadFrame);
    EXPECT_EQ(error.request_id, 0u);
    NetClient::QueryResult result;
    EXPECT_EQ(client.Query(10, 1, &result), NetClient::Status::kOk);
  }

  {  // m beyond the server's cap: per-request BAD_FRAME with the id echoed.
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{77, 1, 100000}, &bytes);
    ASSERT_TRUE(client.SendRaw(bytes));
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadFrame);
    EXPECT_EQ(error.request_id, 77u);
  }
  EXPECT_TRUE(harness.daemon->Drain());
}

// HEALTH and METRICS payloads are empty, so a frame of either type that
// carries a byte is a payload-level violation on an intact frame: it gets
// ERROR/BAD_FRAME and counts as a bad frame, not as a health check or a
// scrape, and the next frame on the connection is served.
TEST(NetDaemonTest, HealthAndMetricsWithPayloadsGetBadFrame) {
  obs::MetricsRegistry registry;
  NetDaemonOptions options;
  options.metrics = &registry;
  DaemonHarness harness(2000, options);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));

  std::vector<uint8_t> bytes;
  for (const auto append : {&AppendHealth, &AppendMetrics}) {
    const size_t frame = bytes.size();
    append(&bytes);
    bytes[frame] = 1;    // payload_len 1 (little-endian u32)...
    bytes.push_back(0);  // ...and the byte it announces
  }
  AppendHealth(&bytes);
  ASSERT_TRUE(client.SendRaw(bytes));

  FrameHeader header;
  std::vector<uint8_t> payload;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
    ASSERT_EQ(header.type, FrameType::kError);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(payload.data(), payload.size(), &error));
    EXPECT_EQ(error.code, ErrorCode::kBadFrame);
    EXPECT_EQ(error.request_id, 0u);
  }
  ASSERT_TRUE(client.ReadFrameRaw(&header, &payload));
  EXPECT_EQ(header.type, FrameType::kHealthReply);

  const NetDaemonStats stats = harness.daemon->stats();
  EXPECT_EQ(stats.bad_frames, 2u);
  EXPECT_EQ(stats.health_checks, 1u);
  EXPECT_EQ(stats.scrapes, 0u);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("net/bad_frames"), 2u);
  EXPECT_EQ(snap.counters.at("net/health_checks"), 1u);
  EXPECT_EQ(snap.counters.at("net/scrapes"), 0u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// A query whose turn comes past its per-query deadline gets an explicit
// ERROR/DEADLINE_EXCEEDED — never a hang and never a silently empty reply —
// the connection survives, and once the stall clears queries serve again.
TEST(NetDaemonTest, DeadlineExpiredQueriesGetExplicitTimeout) {
  NetDaemonOptions options;
  options.deadline_us = 1000;  // 1 ms budget per query
  DaemonHarness harness(2000, options);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));

  {
    // Two frames in one write, so one read delivers both. The first is
    // served but stalled 50 ms; the second's turn comes 50 ms after that
    // read.
    LoopHold hold(50000);
    std::vector<uint8_t> bytes;
    AppendQuery(QueryFrame{1001, 1, 10}, &bytes);
    AppendQuery(QueryFrame{1002, 2, 10}, &bytes);
    ASSERT_TRUE(client.SendRaw(bytes));

    NetClient::QueryResult result;
    uint64_t id = 0;
    ASSERT_EQ(client.ReadReply(&result, &id), NetClient::Status::kOk);
    EXPECT_EQ(id, 1001u);
    EXPECT_EQ(result.pages.size(), 10u);
    ASSERT_EQ(client.ReadReply(&result, &id),
              NetClient::Status::kDeadlineExceeded);
    EXPECT_EQ(id, 1002u);
    EXPECT_EQ(client.last_error().code, ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(hold.fired(), 1u);
  }
  EXPECT_EQ(harness.daemon->stats().deadline_exceeded, 1u);

  // Fault cleared: the same connection serves normally again.
  NetClient::QueryResult result;
  ASSERT_EQ(client.Query(10, 2, &result), NetClient::Status::kOk);
  EXPECT_EQ(result.pages.size(), 10u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// QUERY_REPLY.epoch names the epoch the realization was drawn from, not
// whatever epoch is live when the reply is encoded: a publish landing while
// the query is being served must not relabel the reply.
TEST(NetDaemonTest, ReplyEpochIsThePinnedViewsEvenAcrossAPublish) {
  DaemonHarness harness(2000);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));

  // Hold the first query inside the serve path, after its view is pinned.
  fault::FaultPlan plan;
  ASSERT_TRUE(fault::FaultPlan::Parse(
      "point=serve.query,action=delay,nth=1,delay_us=500000", &plan,
      nullptr));
  fault::FaultInjector injector(std::move(plan));
  fault::ScopedFaultInjector scoped(&injector);

  NetClient::Status status = NetClient::Status::kIoError;
  NetClient::QueryResult result;
  std::thread query([&] { status = client.Query(10, 1, &result); });
  for (int i = 0; i < 5000 && injector.fired(fault::kServeQuery) == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t fired_before_publish = injector.fired(fault::kServeQuery);
  // Publish epoch 2 while the query is still delayed on epoch 1's view.
  const bool published = harness.server->Update(harness.fixture.popularity,
                                                harness.fixture.zero,
                                                harness.fixture.birth);
  // Join before any fatal assertion: a joinable std::thread would terminate
  // the whole binary on the early return.
  query.join();

  ASSERT_EQ(fired_before_publish, 1u);
  ASSERT_TRUE(published);
  ASSERT_EQ(status, NetClient::Status::kOk);
  EXPECT_EQ(result.pages.size(), 10u);
  EXPECT_EQ(harness.server->epoch(), 2u);
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_TRUE(harness.daemon->Drain());
}

// Injected connection resets mid-reply: the client sees a clean IO error
// (not a hang, not a corrupt frame), and QueryWithRetry reconnects and
// completes. Injected partial writes must be invisible — short writes are a
// normal socket condition the flush loop already handles.
TEST(NetDaemonTest, ClientRetriesThroughInjectedResets) {
  DaemonHarness harness(2000);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.daemon->port(), 10));

  {
    // First daemon write resets the connection; later writes are fine.
    fault::FaultPlan plan;
    ASSERT_TRUE(fault::FaultPlan::Parse(
        "point=net.write,action=reset,nth=1,max_fires=1", &plan, nullptr));
    fault::FaultInjector injector(std::move(plan));
    fault::ScopedFaultInjector scoped(&injector);

    NetClient::QueryResult result;
    ASSERT_EQ(client.QueryWithRetry(10, 1, &result), NetClient::Status::kOk);
    EXPECT_EQ(result.pages.size(), 10u);
    EXPECT_EQ(injector.fired(fault::kNetWrite), 1u);
  }

  {
    // Every write capped at 3 bytes: replies arrive intact, just in many
    // syscalls.
    fault::FaultPlan plan;
    ASSERT_TRUE(fault::FaultPlan::Parse(
        "point=net.write,action=partial,bytes=3", &plan, nullptr));
    fault::FaultInjector injector(std::move(plan));
    fault::ScopedFaultInjector scoped(&injector);

    NetClient::QueryResult result;
    ASSERT_EQ(client.Query(15, 2, &result), NetClient::Status::kOk);
    EXPECT_EQ(result.pages.size(), 15u);
    EXPECT_GT(injector.fired(fault::kNetWrite), 1u);
  }
  EXPECT_TRUE(harness.daemon->Drain());
}

}  // namespace
}  // namespace randrank::net
