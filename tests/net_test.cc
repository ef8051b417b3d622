// Cross-process shard serving (src/net/, docs/networking.md): the wire
// framing contract (torn frames name their byte offset, hostile length
// prefixes are rejected before allocation), the endpoint-spec grammar,
// and the headline determinism claim — a RemoteShardRouter fanning each
// gain out to loopback shard servers and folding the returned terms in
// range order returns bit-identical seeds, gains, and evaluation counts
// to the in-process ShardRouter for shard counts {1, 2, 3}.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "net/fed_metrics.h"
#include "net/remote_router.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CreditDistributionModel BuildModel(const Graph& graph, const ActionLog& log,
                                   const DirectCreditModel& credit,
                                   double lambda = 0.0) {
  CdConfig config;
  config.truncation_threshold = lambda;
  auto model = CreditDistributionModel::Build(graph, log, credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

SyntheticDataset MakeDataset(double scale = 0.1) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(scale));
  INFLUMAX_CHECK(data.ok());
  return std::move(data).value();
}

/// Splits `model` into a generation directory GenerationManager (and so
/// ShardServer) can open.
void WriteGenerationDir(const CreditDistributionModel& model,
                        const std::string& dir, std::size_t shards,
                        std::uint64_t generation = 1) {
  ShardedSnapshotWriter writer(dir, shards);
  ASSERT_TRUE(writer.WriteFromModel(model, generation).ok());
  ASSERT_TRUE(
      WriteCurrentManifestName(dir, ManifestFileName(generation)).ok());
}

/// One in-process ShardServer per shard of `dir`, each on an ephemeral
/// loopback port, plus the matching single-replica endpoint spec.
struct ServerFleet {
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<RemoteEndpoint>> replica_sets;
};

ServerFleet StartFleet(const std::string& dir, std::size_t shards) {
  ServerFleet fleet;
  for (std::size_t i = 0; i < shards; ++i) {
    ShardServerOptions options;
    options.dir = dir;
    options.shard = static_cast<int>(i);
    auto server = ShardServer::Start(options);
    INFLUMAX_CHECK(server.ok());
    fleet.replica_sets.push_back({{"127.0.0.1", (*server)->port()}});
    fleet.servers.push_back(std::move(*server));
  }
  return fleet;
}

/// A connected loopback client/server socket pair.
struct SocketPair {
  TcpListener listener;
  TcpConn client;
  TcpConn server;
};

SocketPair MakeSocketPair() {
  SocketPair pair;
  auto listener = TcpListener::Bind(0);
  INFLUMAX_CHECK(listener.ok());
  pair.listener = std::move(*listener);
  auto client = TcpConn::Connect("127.0.0.1", pair.listener.port(),
                                 Deadline::AfterMs(2000));
  INFLUMAX_CHECK(client.ok());
  pair.client = std::move(*client);
  auto server = pair.listener.Accept(Deadline::AfterMs(2000));
  INFLUMAX_CHECK(server.ok());
  pair.server = std::move(*server);
  return pair;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---------------------------------------------------- payload framing

TEST(BufferIoTest, ShortReadNamesByteOffset) {
  BufferWriter writer;
  writer.WriteU32(7);
  writer.WriteU64(9);  // 12 bytes total
  const std::vector<std::uint8_t> bytes = writer.buffer();

  // Truncate mid-u64: the reader must name the offset it stopped at.
  BufferReader reader(std::span(bytes.data(), 8));
  EXPECT_EQ(reader.ReadU32(), 7u);
  reader.ReadU64();
  const Status st = reader.Finish();
  ASSERT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("byte offset 4"), std::string::npos)
      << st.message();
  // Errors are sticky: later reads keep the first failure.
  reader.ReadDouble();
  EXPECT_EQ(reader.Finish().message(), st.message());
}

TEST(BufferIoTest, OversizedVectorRejectedBeforeAllocation) {
  // A length prefix claiming ~2^61 elements: both the semantic cap and
  // the bytes-remaining check must fire before any resize.
  BufferWriter writer;
  writer.WriteU64(std::uint64_t{1} << 61);
  const std::vector<std::uint8_t> bytes = writer.buffer();

  {
    BufferReader reader(bytes);
    reader.ReadVector<double>(/*max_elements=*/1024);
    const Status st = reader.Finish();
    ASSERT_EQ(st.code(), StatusCode::kCorruption);
    EXPECT_NE(st.message().find("exceeds limit 1024"), std::string::npos)
        << st.message();
  }
  {
    // Even with a permissive cap, the buffer only holds 0 payload bytes.
    BufferReader reader(bytes);
    reader.ReadVector<double>(/*max_elements=*/std::uint64_t{1} << 62);
    EXPECT_EQ(reader.Finish().code(), StatusCode::kCorruption);
  }
  {
    BufferReader reader(bytes);
    reader.ReadString(/*max_bytes=*/16);
    EXPECT_EQ(reader.Finish().code(), StatusCode::kCorruption);
  }
}

TEST(BufferIoTest, VectorRoundTripsThroughWriter) {
  BufferWriter writer;
  writer.WriteVector<std::uint32_t>({1, 2, 3});
  writer.WriteString("hello");
  const std::vector<std::uint8_t> bytes = writer.buffer();
  BufferReader reader(bytes);
  EXPECT_EQ(reader.ReadVector<std::uint32_t>(16),
            (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(reader.ReadString(16), "hello");
  EXPECT_TRUE(reader.Finish().ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

// ------------------------------------------------------- wire framing

TEST(WireTest, FrameRoundTripsOverLoopback) {
  SocketPair pair = MakeSocketPair();
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(MsgType::kGainTerms);
  frame.header.kernel_mode = 1;
  frame.header.generation = 42;
  frame.header.deadline_us = 123456;
  BufferWriter payload;
  EncodeGainTerms(GainTermsRequest{{7, 2}}, &payload);
  frame.payload = payload.TakeBuffer();

  ASSERT_TRUE(
      SendFrame(pair.client, frame, Deadline::AfterMs(2000)).ok());
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->header.type,
            static_cast<std::uint8_t>(MsgType::kGainTerms));
  EXPECT_EQ(received->header.kernel_mode, 1);
  EXPECT_EQ(received->header.generation, 42u);
  EXPECT_EQ(received->header.deadline_us, 123456u);
  BufferReader reader(received->payload);
  auto request = DecodeGainTerms(&reader);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->nodes, (std::vector<NodeId>{7, 2}));
}

TEST(WireTest, TornHeaderNamesByteOffset) {
  SocketPair pair = MakeSocketPair();
  const std::uint8_t junk[10] = {};
  ASSERT_TRUE(
      pair.client.SendAll(junk, sizeof(junk), Deadline::AfterMs(2000)).ok());
  pair.client.Close();
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(received.status().message().find("byte offset 10 of 32"),
            std::string::npos)
      << received.status().message();
}

/// Sends the raw 32 wire bytes of `header` (fingerprint already set by
/// the caller) plus `payload`, optionally truncating the stream.
void SendRawFrame(TcpConn& conn, FrameHeader header,
                  std::span<const std::uint8_t> payload,
                  std::size_t truncate_at = SIZE_MAX) {
  std::vector<std::uint8_t> encoded(kWireHeaderBytes + payload.size());
  std::memcpy(encoded.data() + 0, &header.payload_len, 4);
  encoded[4] = header.version;
  encoded[5] = header.type;
  encoded[6] = header.kernel_mode;
  encoded[7] = header.flags;
  std::memcpy(encoded.data() + 8, &header.generation, 8);
  std::memcpy(encoded.data() + 16, &header.deadline_us, 8);
  std::memcpy(encoded.data() + 24, &header.fingerprint, 8);
  if (!payload.empty()) {
    std::memcpy(encoded.data() + kWireHeaderBytes, payload.data(),
                payload.size());
  }
  const std::size_t send = std::min(truncate_at, encoded.size());
  ASSERT_TRUE(conn.SendAll(encoded.data(), send, Deadline::AfterMs(2000))
                  .ok());
  conn.Close();
}

TEST(WireTest, TornPayloadNamesByteOffset) {
  SocketPair pair = MakeSocketPair();
  const std::vector<std::uint8_t> payload(100, 0xAB);
  FrameHeader header;
  header.payload_len = 100;
  header.type = static_cast<std::uint8_t>(MsgType::kGainTermsOk);
  header.fingerprint = FingerprintFrame(header, payload);
  SendRawFrame(pair.client, header, payload, /*truncate_at=*/32 + 20);
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(received.status().message().find("byte offset 52 of 132"),
            std::string::npos)
      << received.status().message();
}

TEST(WireTest, OversizedPayloadLengthRejectedBeforeAllocation) {
  SocketPair pair = MakeSocketPair();
  FrameHeader header;
  header.payload_len = kMaxFramePayloadBytes + 1;
  header.type = static_cast<std::uint8_t>(MsgType::kGainTermsOk);
  // No payload follows — if the receiver tried to allocate/read it the
  // test would hang or OOM instead of failing cleanly.
  SendRawFrame(pair.client, header, {});
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kCorruption);
  EXPECT_NE(received.status().message().find("exceeds limit"),
            std::string::npos)
      << received.status().message();
}

TEST(WireTest, VersionMismatchRejected) {
  SocketPair pair = MakeSocketPair();
  FrameHeader header;
  header.version = kWireVersion + 1;
  SendRawFrame(pair.client, header, {});
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kCorruption);
  EXPECT_NE(received.status().message().find("version"), std::string::npos);
}

TEST(WireTest, V1FrameStillAccepted) {
  // A v1 peer's frame — version byte 1, flags byte zero (v1's reserved
  // byte) — must decode as an untraced v2 frame bit-for-bit.
  SocketPair pair = MakeSocketPair();
  BufferWriter payload_writer;
  EncodeCommit(CommitRequest{3}, &payload_writer);
  const std::vector<std::uint8_t> payload = payload_writer.buffer();
  FrameHeader header;
  header.version = kWireMinVersion;
  header.type = static_cast<std::uint8_t>(MsgType::kCommit);
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.fingerprint = FingerprintFrame(header, payload);
  SendRawFrame(pair.client, header, payload);
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->header.version, kWireMinVersion);
  EXPECT_EQ(received->header.flags, 0);
  BufferReader reader(received->payload);
  auto commit = DecodeCommit(&reader);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->node, 3u);
}

TEST(WireTest, TracePrefixesRoundTripAndStrip) {
  // Request side: a 16-byte trace context prepends and strips cleanly.
  BufferWriter payload_writer;
  EncodeGainTerms(GainTermsRequest{{9}}, &payload_writer);
  std::vector<std::uint8_t> payload = payload_writer.buffer();
  const std::size_t bare_size = payload.size();
  PrependTraceContext(TraceContext{0xAABB, 0x17}, &payload);
  EXPECT_EQ(payload.size(), bare_size + kTraceContextBytes);
  auto ctx = StripTraceContext(&payload);
  ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
  EXPECT_EQ(ctx->trace_id, 0xAABBu);
  EXPECT_EQ(ctx->parent_span_id, 0x17u);
  EXPECT_EQ(payload.size(), bare_size);
  BufferReader reader(payload);
  auto request = DecodeGainTerms(&reader);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->nodes, (std::vector<NodeId>{9}));

  // Response side: a span block with anchors and two spans.
  SpanBlock block;
  block.server_recv_ns = 100;
  block.server_send_ns = 300;
  TraceSpan span;
  span.span_id = 5;
  span.parent_span_id = 2;
  span.rec.name_id = kSpanServerFold;
  span.rec.start_ns = 150;
  span.rec.duration_ns = 50;
  span.rec.detail = 1;
  block.spans = {span, span};
  PrependSpanBlock(block, &payload);
  auto stripped = StripSpanBlock(&payload);
  ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
  EXPECT_EQ(stripped->server_recv_ns, 100u);
  EXPECT_EQ(stripped->server_send_ns, 300u);
  ASSERT_EQ(stripped->spans.size(), 2u);
  EXPECT_EQ(stripped->spans[0].span_id, 5u);
  EXPECT_EQ(stripped->spans[0].rec.name_id, kSpanServerFold);
  EXPECT_EQ(stripped->spans[0].rec.duration_ns, 50u);
  EXPECT_EQ(payload.size(), bare_size);

  // A hostile span count is bounded before any allocation.
  BufferWriter hostile;
  hostile.WriteU64(0);
  hostile.WriteU64(0);
  hostile.WriteU64(kMaxWireSpans + 1);
  BufferReader hostile_reader(hostile.buffer());
  EXPECT_FALSE(DecodeSpanBlock(&hostile_reader).ok());
}

TEST(WireTest, FingerprintMismatchRejectedAsCorruption) {
  SocketPair pair = MakeSocketPair();
  std::vector<std::uint8_t> payload(16, 0x11);
  FrameHeader header;
  header.payload_len = 16;
  header.type = static_cast<std::uint8_t>(MsgType::kPong);
  header.fingerprint = FingerprintFrame(header, payload);
  payload[3] ^= 0x40;  // one bit flipped after signing
  SendRawFrame(pair.client, header, payload);
  auto received = RecvFrame(pair.server, Deadline::AfterMs(2000));
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kCorruption);
  EXPECT_NE(received.status().message().find("fingerprint"),
            std::string::npos)
      << received.status().message();
}

TEST(WireTest, ErrorResponseRoundTripsEveryStatusCode) {
  for (const Status& st :
       {Status::InvalidArgument("bad arg"), Status::NotFound("gone"),
        Status::IoError("io"), Status::Corruption("bits"),
        Status::FailedPrecondition("pin"), Status::Unavailable("down")}) {
    const ErrorResponse encoded = ErrorFromStatus(st);
    const Status decoded = StatusFromError(encoded);
    EXPECT_EQ(decoded.code(), st.code());
    EXPECT_EQ(decoded.message(), st.message());
  }
}

TEST(WireTest, GainTermsOkRejectsCountsThatDoNotTileTheTerms) {
  const auto decode = [](const GainTermsResponse& reply) {
    BufferWriter writer;
    EncodeGainTermsOk(reply, &writer);
    BufferReader reader(writer.buffer());
    return DecodeGainTermsOk(&reader);
  };
  auto ok = decode(GainTermsResponse{{2, 0, 1}, {0.5, 0.25, 0.125}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->counts, (std::vector<std::uint32_t>{2, 0, 1}));
  EXPECT_EQ(ok->terms, (std::vector<double>{0.5, 0.25, 0.125}));

  // Too few counts, too many counts, and counts whose u32 sum would wrap
  // to exactly terms.size() — all Corruption, never a slicing overrun.
  const std::vector<GainTermsResponse> forged = {
      {{1, 1}, {0.5, 0.25, 0.125}},
      {{2, 2}, {0.5, 0.25, 0.125}},
      {{0xFFFFFFFFu, 4}, {0.5, 0.25, 0.125}},
      {{3}, {}},
  };
  for (const GainTermsResponse& reply : forged) {
    auto bad = decode(reply);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kCorruption)
        << bad.status().ToString();
  }
}

// ------------------------------------------------------ endpoint spec

TEST(EndpointSpecTest, ParsesSlotsAndReplicas) {
  auto sets = ParseEndpointSpec("a:1|b:2,c:3,d:4|e:5|f:6");
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  ASSERT_EQ(sets->size(), 3u);
  ASSERT_EQ((*sets)[0].size(), 2u);
  EXPECT_EQ((*sets)[0][0].host, "a");
  EXPECT_EQ((*sets)[0][0].port, 1);
  EXPECT_EQ((*sets)[0][1].host, "b");
  ASSERT_EQ((*sets)[1].size(), 1u);
  EXPECT_EQ((*sets)[1][0].port, 3);
  ASSERT_EQ((*sets)[2].size(), 3u);
  EXPECT_EQ((*sets)[2][2].port, 6);
}

TEST(EndpointSpecTest, RejectsMalformedSpecs) {
  for (const char* bad : {"", "hostonly", "host:", ":123", "a:1,,b:2",
                          "a:1|", "a:notaport", "a:-1"}) {
    EXPECT_FALSE(ParseEndpointSpec(bad).ok()) << "'" << bad << "'";
  }
}

// ---------------------------------------------- remote vs in-process

TEST(RemoteRouterTest, BitIdenticalToShardRouterAcrossShardCounts) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);

  for (std::size_t shards : {1u, 2u, 3u}) {
    const std::string dir =
        MakeTempDir("net_bitident_s" + std::to_string(shards));
    WriteGenerationDir(model, dir, shards);
    ServerFleet fleet = StartFleet(dir, shards);

    auto manager = GenerationManager::Open(dir);
    ASSERT_TRUE(manager.ok());
    GenerationManager::Session session(**manager);
    ShardRouter& local = session.router();

    RemoteRouterOptions options;
    options.replica_sets = fleet.replica_sets;
    auto remote_or = RemoteShardRouter::Connect(options);
    ASSERT_TRUE(remote_or.ok()) << remote_or.status().ToString();
    RemoteShardRouter& remote = **remote_or;
    EXPECT_EQ(remote.generation(), 1u);
    EXPECT_EQ(remote.num_users(), data.log.num_users());
    EXPECT_EQ(remote.num_slots(), shards);

    // Gains for every user, fresh session, bit-compared.
    for (NodeId x = 0; x < data.log.num_users(); ++x) {
      auto gain = remote.MarginalGain(x);
      ASSERT_TRUE(gain.ok()) << gain.status().ToString();
      ASSERT_TRUE(SameBits(*gain, local.MarginalGain(x)))
          << "node " << x << " with " << shards << " shards";
    }

    // The full CELF selection: seeds, gains, spreads, and the counted
    // evaluations — the strongest determinism witness the engine has.
    const auto expected = local.TopKSeeds(10);
    auto routed = remote.TopKSeeds(10);
    ASSERT_TRUE(routed.ok()) << routed.status().ToString();
    ASSERT_GT(expected.seeds.size(), 0u);
    EXPECT_EQ(routed->seeds, expected.seeds) << shards << " shards";
    EXPECT_EQ(routed->marginal_gains, expected.marginal_gains);
    EXPECT_EQ(routed->cumulative_spread, expected.cumulative_spread);
    EXPECT_EQ(routed->gain_evaluations, expected.gain_evaluations)
        << shards << " shards";

    // Committed-session parity: spread of a prefix, then gains against
    // the partial seed set.
    std::vector<NodeId> seeds(expected.seeds.begin(),
                              expected.seeds.begin() + 3);
    local.ResetSession();
    ASSERT_TRUE(remote.ResetSession().ok());
    auto remote_spread = remote.SpreadOf(seeds);
    ASSERT_TRUE(remote_spread.ok());
    EXPECT_TRUE(SameBits(*remote_spread, local.SpreadOf(seeds)));
    EXPECT_EQ(remote.session_seeds().size(), 3u);
    for (NodeId x = 0; x < data.log.num_users(); x += 7) {
      auto gain = remote.MarginalGain(x);
      ASSERT_TRUE(gain.ok());
      ASSERT_TRUE(SameBits(*gain, local.MarginalGain(x)))
          << "post-commit node " << x << " with " << shards << " shards";
    }

    fleet.servers.clear();  // stop before the dir goes away
    std::filesystem::remove_all(dir);
  }
}

TEST(RemoteRouterTest, WholeGenerationServerMatchesShardedFleet) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_whole_gen");
  WriteGenerationDir(model, dir, 3);

  // One server with shard = -1 serves all three shards as a single
  // range slot; the fold chains through its engines server-side.
  ShardServerOptions options;
  options.dir = dir;
  auto server = ShardServer::Start(options);
  ASSERT_TRUE(server.ok());

  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  GenerationManager::Session session(**manager);

  RemoteRouterOptions ropts;
  ropts.replica_sets = {{{"127.0.0.1", (*server)->port()}}};
  auto remote = RemoteShardRouter::Connect(ropts);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const auto expected = session.router().TopKSeeds(5);
  auto routed = (*remote)->TopKSeeds(5);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->seeds, expected.seeds);
  EXPECT_EQ(routed->marginal_gains, expected.marginal_gains);
  EXPECT_EQ(routed->gain_evaluations, expected.gain_evaluations);
}

// --------------------------------------------------------- robustness

TEST(RemoteRouterTest, GenerationPinMismatchIsDeterministic) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_pin_mismatch");
  WriteGenerationDir(model, dir, 2);
  ServerFleet fleet = StartFleet(dir, 2);

  RemoteRouterOptions options;
  options.replica_sets = fleet.replica_sets;
  options.generation_pin = 999;
  options.retry.max_attempts = 4;  // must NOT be retried anyway
  options.retry.initial_backoff_ms = 1;
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_FALSE(remote.ok());
  EXPECT_EQ(remote.status().code(), StatusCode::kFailedPrecondition)
      << remote.status().ToString();
}

TEST(RemoteRouterTest, SessionCapacityRefusedAsUnavailable) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_capacity");
  WriteGenerationDir(model, dir, 1);

  ShardServerOptions sopts;
  sopts.dir = dir;
  sopts.max_sessions = 1;
  auto server = ShardServer::Start(sopts);
  ASSERT_TRUE(server.ok());

  RemoteRouterOptions options;
  options.replica_sets = {{{"127.0.0.1", (*server)->port()}}};
  options.retry.max_attempts = 1;
  options.retry.initial_backoff_ms = 1;
  options.retry.budget_ms = 50;
  auto first = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RemoteShardRouter::Connect(options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(second.status().message().find("capacity"), std::string::npos)
      << second.status().ToString();

  // Releasing the first session frees the slot for a new client (the
  // server's handler releases it asynchronously when it notices the
  // closed socket, hence the bounded re-poll).
  first->reset();
  Status third_status;
  for (int i = 0; i < 200; ++i) {
    auto third = RemoteShardRouter::Connect(options);
    third_status = third.status();
    if (third_status.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(third_status.ok()) << third_status.ToString();
}

TEST(RemoteRouterTest, DeadServerFailsFastWithUnavailable) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_dead_server");
  WriteGenerationDir(model, dir, 1);
  ServerFleet fleet = StartFleet(dir, 1);

  RemoteRouterOptions options;
  options.replica_sets = fleet.replica_sets;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 1;
  options.retry.budget_ms = 20;
  options.connect_timeout_ms = 200;
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  fleet.servers[0]->Kill();
  auto gain = (*remote)->MarginalGain(0);
  ASSERT_FALSE(gain.ok());
  EXPECT_EQ(gain.status().code(), StatusCode::kUnavailable)
      << gain.status().ToString();
}

TEST(RemoteRouterTest, ProbeReplicasReportsHealthPerReplica) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_probe");
  WriteGenerationDir(model, dir, 1);
  ServerFleet fleet = StartFleet(dir, 1);
  // A second, dead endpoint on the same slot.
  fleet.replica_sets[0].push_back({"127.0.0.1", 1});

  RemoteRouterOptions options;
  options.replica_sets = fleet.replica_sets;
  options.rpc_deadline_ms = 500;
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const auto health = (*remote)->ProbeReplicas();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0].healthy);
  EXPECT_EQ(health[0].generation, 1u);
  EXPECT_FALSE(health[1].healthy);
}

TEST(ShardServerTest, MetricsEndpointServesHealthAndPrometheus) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_http_metrics");
  WriteGenerationDir(model, dir, 1);

  ShardServerOptions options;
  options.dir = dir;
  options.metrics_port = 0;
  auto server = ShardServer::Start(options);
  ASSERT_TRUE(server.ok());
  ASSERT_GT((*server)->metrics_port(), 0);

  const auto http_get = [&](const std::string& path) -> std::string {
    auto conn = TcpConn::Connect("127.0.0.1", (*server)->metrics_port(),
                                 Deadline::AfterMs(2000));
    INFLUMAX_CHECK(conn.ok());
    const std::string request =
        "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    INFLUMAX_CHECK(conn->SendAll(request.data(), request.size(),
                                 Deadline::AfterMs(2000))
                       .ok());
    std::string body;
    char buf[4096];
    for (;;) {
      auto got = conn->RecvSome(buf, sizeof(buf), Deadline::AfterMs(2000));
      if (!got.ok() || *got == 0) break;
      body.append(buf, *got);
    }
    return body;
  };

  const std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200"), std::string::npos) << health;
  EXPECT_NE(health.find("ok generation=1"), std::string::npos) << health;
  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("influmax_net_server_requests_total"),
            std::string::npos);
  const std::string missing = http_get("/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
}

TEST(ShardServerTest, RefreshFollowsCurrentPointerWithoutMovingPins) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_server_refresh");
  WriteGenerationDir(model, dir, 2, /*generation=*/1);

  ShardServerOptions options;
  options.dir = dir;
  auto server = ShardServer::Start(options);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->current_generation(), 1u);

  RemoteRouterOptions ropts;
  ropts.replica_sets = {{{"127.0.0.1", (*server)->port()}}};
  auto remote = RemoteShardRouter::Connect(ropts);
  ASSERT_TRUE(remote.ok());
  auto before = (*remote)->MarginalGain(0);
  ASSERT_TRUE(before.ok());

  // Publish generation 2 and refresh the server: new hellos see it, the
  // pinned client keeps answering (and keeps its bits) on generation 1.
  WriteGenerationDir(model, dir, 2, /*generation=*/2);
  auto swapped = (*server)->Refresh();
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(*swapped);
  EXPECT_EQ((*server)->current_generation(), 2u);
  EXPECT_EQ((*remote)->generation(), 1u);
  auto after = (*remote)->MarginalGain(0);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(SameBits(*after, *before));

  // Client-side Refresh re-pins to the new generation.
  auto moved = (*remote)->Refresh();
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  EXPECT_TRUE(*moved);
  EXPECT_EQ((*remote)->generation(), 2u);
}

// ---------------------------------------------------- hostile replies

/// Opens a session on `port` over a raw connection (hello with no pin)
/// and returns the connection plus the hello's generation.
std::pair<TcpConn, std::uint64_t> RawSession(int port) {
  auto conn = TcpConn::Connect("127.0.0.1", port, Deadline::AfterMs(2000));
  INFLUMAX_CHECK(conn.ok());
  Frame hello;
  hello.header.type = static_cast<std::uint8_t>(MsgType::kHello);
  BufferWriter payload;
  EncodeHello(HelloRequest{}, &payload);
  hello.payload = payload.TakeBuffer();
  INFLUMAX_CHECK(SendFrame(*conn, std::move(hello), Deadline::AfterMs(2000))
                     .ok());
  auto reply = RecvFrame(*conn, Deadline::AfterMs(2000));
  INFLUMAX_CHECK(reply.ok());
  INFLUMAX_CHECK(reply->header.type ==
                 static_cast<std::uint8_t>(MsgType::kHelloOk));
  return {std::move(*conn), reply->header.generation};
}

/// One request/response exchange on a raw session connection.
Frame RawExchange(TcpConn& conn, std::uint64_t generation, MsgType type,
                  std::vector<std::uint8_t> payload, std::uint8_t flags = 0) {
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(type);
  frame.header.generation = generation;
  frame.header.flags = flags;
  frame.payload = std::move(payload);
  INFLUMAX_CHECK(SendFrame(conn, std::move(frame), Deadline::AfterMs(5000))
                     .ok());
  auto reply = RecvFrame(conn, Deadline::AfterMs(5000));
  INFLUMAX_CHECK(reply.ok()) << reply.status().ToString();
  return std::move(*reply);
}

Status ErrorOf(const Frame& frame) {
  if (frame.header.type != static_cast<std::uint8_t>(MsgType::kError)) {
    return Status::OK();
  }
  BufferReader reader(frame.payload);
  auto error = DecodeError(&reader);
  INFLUMAX_CHECK(error.ok());
  return StatusFromError(*error);
}

TEST(ShardServerTest, RetiredFoldTypesGetInvalidArgument) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_retired_types");
  WriteGenerationDir(model, dir, 1);
  ServerFleet fleet = StartFleet(dir, 1);
  auto [conn, generation] = RawSession(fleet.servers[0]->port());

  // 5-8 were the chained fold; a frame of those types gets a clean
  // error frame, and the session keeps serving.
  for (std::uint8_t type = 5; type <= 8; ++type) {
    BufferWriter payload;
    EncodeFold(FoldRequest{0, 0.0}, &payload);
    const Frame reply = RawExchange(conn, generation,
                                    static_cast<MsgType>(type),
                                    payload.TakeBuffer());
    const Status st = ErrorOf(reply);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find("retired"), std::string::npos)
        << st.ToString();
  }
  BufferWriter payload;
  EncodeGainTerms(GainTermsRequest{{0}}, &payload);
  const Frame reply = RawExchange(conn, generation, MsgType::kGainTerms,
                                  payload.TakeBuffer());
  EXPECT_EQ(reply.header.type,
            static_cast<std::uint8_t>(MsgType::kGainTermsOk));
}

TEST(ShardServerTest, OverBudgetGainTermsRefusedBeforeFolding) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_terms_budget");
  WriteGenerationDir(model, dir, 1);
  ServerFleet fleet = StartFleet(dir, 1);

  // The most active user, repeated until the request's reply would
  // cost one unit past kMaxGainTermsPerRequest (1 + A_x per node).
  NodeId busiest = 0;
  for (NodeId x = 0; x < data.log.num_users(); ++x) {
    if (data.log.ActionsPerformedBy(x) >
        data.log.ActionsPerformedBy(busiest)) {
      busiest = x;
    }
  }
  const std::uint64_t cost = 1 + data.log.ActionsPerformedBy(busiest);
  ASSERT_GT(cost, 1u);
  GainTermsRequest request;
  request.nodes.assign(kMaxGainTermsPerRequest / cost + 1, busiest);

  auto [conn, generation] = RawSession(fleet.servers[0]->port());
  BufferWriter payload;
  EncodeGainTerms(request, &payload);
  std::vector<std::uint8_t> traced = payload.TakeBuffer();
  PrependTraceContext(TraceContext{1, 2}, &traced);
  Frame reply = RawExchange(conn, generation, MsgType::kGainTerms,
                            std::move(traced), kFrameFlagTraced);
  ASSERT_NE(reply.header.flags & kFrameFlagTraced, 0);
  auto block = StripSpanBlock(&reply.payload);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  const Status st = ErrorOf(reply);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("budget"), std::string::npos) << st.ToString();
  // Refused before any fold work: the server recorded no fold span.
  for (const TraceSpan& span : block->spans) {
    EXPECT_NE(span.rec.name_id, kSpanServerFold);
  }

  // One node fewer fits the budget and is answered.
  request.nodes.resize(kMaxGainTermsPerRequest / cost);
  BufferWriter fits;
  EncodeGainTerms(request, &fits);
  const Frame ok = RawExchange(conn, generation, MsgType::kGainTerms,
                               fits.TakeBuffer());
  EXPECT_EQ(ok.header.type, static_cast<std::uint8_t>(MsgType::kGainTermsOk))
      << ErrorOf(ok).ToString();
}

/// A replica that lies: it relays frames between one client and a real
/// shard server, one connection at a time, and passes every
/// kGainTermsOk reply through `forge` while forging is on. A forge
/// returning false replaces the reply with an InvalidArgument error
/// frame instead.
class ForgingProxy {
 public:
  using Forge = std::function<bool(GainTermsResponse*)>;

  ForgingProxy(int upstream_port, Forge forge)
      : upstream_port_(upstream_port), forge_(std::move(forge)) {
    auto listener = TcpListener::Bind(0);
    INFLUMAX_CHECK(listener.ok());
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { Run(); });
  }

  ~ForgingProxy() {
    stopping_ = true;
    listener_.Abort();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (client_ != nullptr) client_->Abort();
    }
    thread_.join();
  }

  int port() const { return listener_.port(); }
  void set_forging(bool on) { forging_ = on; }
  std::size_t forged() const { return forged_; }

 private:
  void Run() {
    while (!stopping_) {
      auto client = listener_.Accept(Deadline::Infinite());
      if (!client.ok()) return;
      auto upstream = TcpConn::Connect("127.0.0.1", upstream_port_,
                                       Deadline::AfterMs(2000));
      if (!upstream.ok()) return;
      {
        std::lock_guard<std::mutex> lock(mu_);
        client_ = &*client;
      }
      Relay(*client, *upstream);
      std::lock_guard<std::mutex> lock(mu_);
      client_ = nullptr;
    }
  }

  void Relay(TcpConn& client, TcpConn& upstream) {
    const auto deadline = [] { return Deadline::AfterMs(5000); };
    for (;;) {
      auto request = RecvFrame(client, Deadline::Infinite());
      if (!request.ok()) return;
      if (!SendFrame(upstream, std::move(*request), deadline()).ok()) return;
      auto reply = RecvFrame(upstream, deadline());
      if (!reply.ok()) return;
      if (forging_ && reply->header.type ==
                          static_cast<std::uint8_t>(MsgType::kGainTermsOk)) {
        BufferReader reader(reply->payload);
        auto terms = DecodeGainTermsOk(&reader);
        INFLUMAX_CHECK(terms.ok());
        BufferWriter forged;
        if (forge_(&*terms)) {
          EncodeGainTermsOk(*terms, &forged);
        } else {
          reply->header.type = static_cast<std::uint8_t>(MsgType::kError);
          EncodeError(ErrorFromStatus(Status::InvalidArgument("forged")),
                      &forged);
        }
        reply->payload = forged.TakeBuffer();
        ++forged_;
      }
      if (!SendFrame(client, std::move(*reply), deadline()).ok()) return;
    }
  }

  const int upstream_port_;
  const Forge forge_;
  TcpListener listener_;
  std::thread thread_;
  std::mutex mu_;
  TcpConn* client_ = nullptr;  // guarded by mu_
  std::atomic<bool> stopping_{false};
  std::atomic<bool> forging_{true};
  std::atomic<std::size_t> forged_{0};
};

std::uint64_t CounterValue(const std::string& name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

TEST(RemoteRouterTest, ForgedGainTermsRepliesAreRejected) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_forged_terms");
  WriteGenerationDir(model, dir, 2);
  ServerFleet fleet = StartFleet(dir, 2);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  GenerationManager::Session session(**manager);
  std::vector<NodeId> active;
  for (NodeId x = 0; x < data.log.num_users(); ++x) {
    if (data.log.ActionsPerformedBy(x) != 0) active.push_back(x);
  }
  ASSERT_GE(active.size(), 2u);

  struct Case {
    const char* name;
    ForgingProxy::Forge forge;
    bool fails_over;  ///< rejected on its own slot, so a failover trigger
  };
  const Case cases[] = {
      // One count more than nodes asked for.
      {"extra count",
       [](GainTermsResponse* r) {
         r->counts.push_back(0);
         return true;
       },
       true},
      // Counts that no longer tile the terms (caught by the decoder).
      {"untiled terms",
       [](GainTermsResponse* r) {
         r->terms.push_back(1.0);
         return true;
       },
       true},
      // Well-formed, but one term more than A_x across the slots.
      {"term total != A_x",
       [](GainTermsResponse* r) {
         r->counts[0] += 1;
         r->terms.insert(r->terms.begin(), 0.0);
         return true;
       },
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    // Slot 1 is served by the liar alone: every forgery is Corruption.
    {
      ForgingProxy proxy(fleet.servers[1]->port(), c.forge);
      RemoteRouterOptions options;
      options.replica_sets = {fleet.replica_sets[0],
                              {{"127.0.0.1", proxy.port()}}};
      options.retry.max_attempts = 1;
      auto remote = RemoteShardRouter::Connect(options);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      auto gain = (*remote)->MarginalGain(active[0]);
      ASSERT_FALSE(gain.ok());
      EXPECT_EQ(gain.status().code(), StatusCode::kCorruption)
          << gain.status().ToString();
      EXPECT_GE(proxy.forged(), 1u);
      // The liar stops lying: the next query is bit-exact, so no stream
      // was left out of sync.
      proxy.set_forging(false);
      auto next = (*remote)->MarginalGain(active[1]);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      EXPECT_TRUE(SameBits(*next, session.router().MarginalGain(active[1])));
    }
    // With an honest second replica, a reply rejected on its own slot
    // fails over to it and the answer keeps its bits. The A_x total
    // names no single slot, so it stays a Corruption.
    {
      ForgingProxy proxy(fleet.servers[1]->port(), c.forge);
      RemoteRouterOptions options;
      options.replica_sets = {
          fleet.replica_sets[0],
          {{"127.0.0.1", proxy.port()}, fleet.replica_sets[1][0]}};
      options.retry.max_attempts = 1;
      auto remote = RemoteShardRouter::Connect(options);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      const std::uint64_t failovers = CounterValue("net.failovers");
      auto gain = (*remote)->MarginalGain(active[0]);
      if (!c.fails_over) {
        ASSERT_FALSE(gain.ok());
        EXPECT_EQ(gain.status().code(), StatusCode::kCorruption);
        continue;
      }
      ASSERT_TRUE(gain.ok()) << gain.status().ToString();
      EXPECT_TRUE(SameBits(*gain, session.router().MarginalGain(active[0])));
      EXPECT_GT(CounterValue("net.failovers"), failovers);
    }
  }
}

TEST(RemoteRouterTest, DeterministicSlotErrorKeepsEveryStreamInSync) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_slot_error");
  WriteGenerationDir(model, dir, 3);
  ServerFleet fleet = StartFleet(dir, 3);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  GenerationManager::Session session(**manager);

  // The middle slot answers with an error frame while slot 2's reply is
  // still unread behind it.
  ForgingProxy proxy(fleet.servers[1]->port(),
                     [](GainTermsResponse*) { return false; });
  RemoteRouterOptions options;
  options.replica_sets = {fleet.replica_sets[0],
                          {{"127.0.0.1", proxy.port()}},
                          fleet.replica_sets[2]};
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  NodeId seed = 0;
  for (NodeId x = 0; x < data.log.num_users(); ++x) {
    if (data.log.ActionsPerformedBy(x) > data.log.ActionsPerformedBy(seed)) {
      seed = x;
    }
  }
  ASSERT_TRUE((*remote)->CommitSeed(seed).ok());
  session.router().CommitSeed(seed);

  NodeId probe = 0;
  while (probe == seed || data.log.ActionsPerformedBy(probe) == 0) ++probe;
  const std::uint64_t reconnects = CounterValue("net.reconnects");
  const std::uint64_t failovers = CounterValue("net.failovers");
  auto refused = (*remote)->MarginalGain(probe);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();

  // A deterministic error is not a failover: no replica was abandoned,
  // no connection re-dialed, and every stream — the erring slot's and
  // the two whose replies were drained around it — answers the next
  // queries bit-exactly against the committed session.
  proxy.set_forging(false);
  for (NodeId x = 0; x < data.log.num_users(); x += 3) {
    auto gain = (*remote)->MarginalGain(x);
    ASSERT_TRUE(gain.ok()) << gain.status().ToString();
    ASSERT_TRUE(SameBits(*gain, session.router().MarginalGain(x)))
        << "node " << x;
  }
  EXPECT_EQ(CounterValue("net.reconnects"), reconnects);
  EXPECT_EQ(CounterValue("net.failovers"), failovers);
}

// ------------------------------------------------- distributed tracing

/// Runs traced MarginalGain queries against `remote` until one actually
/// crosses the wire (inactive users short-circuit locally) and returns
/// that trace.
TraceRecord TraceOneRemoteGain(RemoteShardRouter& remote,
                               TraceCollector& collector) {
  for (NodeId x = 0; x < remote.num_users(); ++x) {
    INFLUMAX_CHECK(collector.StartTrace(kSpanQueryGain, x));
    auto gain = remote.MarginalGain(x);
    collector.EndTrace();
    INFLUMAX_CHECK(gain.ok());
    const std::vector<TraceRecord> traces = collector.Traces();
    INFLUMAX_CHECK(!traces.empty());
    if (!traces.back().spans.empty()) return traces.back();
  }
  INFLUMAX_CHECK(false);  // dataset always has active users
  return {};
}

TEST(TracingTest, RemoteGainTraceStitchesClientAndServerSpans) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_trace_stitch");
  WriteGenerationDir(model, dir, 2);
  ServerFleet fleet = StartFleet(dir, 2);

  RemoteRouterOptions options;
  options.replica_sets = fleet.replica_sets;
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  TraceCollector collector;
  (*remote)->set_trace_collector(&collector);
  const TraceRecord trace = TraceOneRemoteGain(**remote, collector);

  EXPECT_EQ(trace.root_name_id, kSpanQueryGain);
  EXPECT_EQ(trace.failovers, 0u);
  ASSERT_GT(trace.spans.size(), 0u);

  // Index by span id for parent walks.
  std::map<std::uint64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : trace.spans) by_id[s.span_id] = &s;

  // One net.fanout span under the query root, and one client net.rpc
  // span per slot under it: the RPCs overlap instead of chaining.
  std::size_t rpc_spans = 0, server_requests = 0, server_folds = 0;
  std::size_t fanout_spans = 0;
  std::uint32_t remote_flagged = 0;
  std::set<std::uint32_t> origins;
  for (const TraceSpan& s : trace.spans) {
    if ((s.rec.flags & kSpanFlagRemote) != 0) {
      ++remote_flagged;
      origins.insert(s.rec.origin);
      EXPECT_NE(s.rec.origin, 0u);  // origin stamped by the stitcher

      // Every remote span lies inside its enclosing client RPC's
      // envelope on the client's clock (the re-anchoring claim; 1us
      // slack absorbs midpoint integer truncation).
      const TraceSpan* rpc = &s;
      for (int depth = 0; depth < 8 && rpc != nullptr &&
                          rpc->rec.name_id != kSpanNetRpc;
           ++depth) {
        auto it = by_id.find(rpc->parent_span_id);
        rpc = it == by_id.end() ? nullptr : it->second;
      }
      ASSERT_NE(rpc, nullptr) << "remote span with no net.rpc ancestor";
      constexpr std::uint64_t kSlackNs = 1000;
      EXPECT_GE(s.rec.start_ns + kSlackNs, rpc->rec.start_ns);
      EXPECT_LE(s.rec.start_ns + s.rec.duration_ns,
                rpc->rec.start_ns + rpc->rec.duration_ns + kSlackNs);
    } else {
      EXPECT_EQ(s.rec.origin, 0u);  // local spans stay origin 0
    }
    if (s.rec.name_id == kSpanNetFanout) {
      ++fanout_spans;
      EXPECT_EQ(s.parent_span_id, trace.root_span_id);
      EXPECT_EQ(s.rec.detail, 2u);  // slot count
    }
    if (s.rec.name_id == kSpanNetRpc) {
      ++rpc_spans;
      auto parent = by_id.find(s.parent_span_id);
      ASSERT_NE(parent, by_id.end());
      EXPECT_EQ(parent->second->rec.name_id, kSpanNetFanout);
      EXPECT_EQ(s.rec.flags & kSpanFlagRemote, 0);
      // The fan-out envelope holds each of its RPCs.
      EXPECT_GE(s.rec.start_ns, parent->second->rec.start_ns);
      EXPECT_LE(s.rec.start_ns + s.rec.duration_ns,
                parent->second->rec.start_ns +
                    parent->second->rec.duration_ns);
    }
    if (s.rec.name_id == kSpanServerRequest) ++server_requests;
    if (s.rec.name_id == kSpanServerFold) ++server_folds;
  }
  // The gain fans out to both slots: a client RPC and a remote
  // server.request + server.fold from each.
  EXPECT_EQ(fanout_spans, 1u);
  EXPECT_EQ(rpc_spans, 2u);
  EXPECT_EQ(server_requests, 2u);
  EXPECT_EQ(server_folds, 2u);
  EXPECT_EQ(origins.size(), 2u);  // distinct (slot, replica) origins
  EXPECT_EQ(trace.remote_spans, remote_flagged);
  EXPECT_EQ(trace.fetches, 0u);  // small blocks piggyback by default

  // The trace exports as Chrome trace-event JSON with both sides named.
  const std::string json = collector.TraceEventJson();
  EXPECT_NE(json.find("\"net.rpc\""), std::string::npos);
  EXPECT_NE(json.find("\"net.fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"server.fold\""), std::string::npos);
}

TEST(TracingTest, OversizedSpanBlocksArriveViaTraceFetch) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_trace_fetch");
  WriteGenerationDir(model, dir, 1);

  // Piggyback budget 0: every traced response overflows, so the client
  // must recover the spans with an explicit kTraceFetch round-trip.
  ShardServerOptions sopts;
  sopts.dir = dir;
  sopts.shard = 0;
  sopts.trace_piggyback_spans = 0;
  auto server = ShardServer::Start(sopts);
  ASSERT_TRUE(server.ok());

  RemoteRouterOptions options;
  options.replica_sets = {{{"127.0.0.1", (*server)->port()}}};
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  TraceCollector collector;
  (*remote)->set_trace_collector(&collector);
  const TraceRecord trace = TraceOneRemoteGain(**remote, collector);

  EXPECT_GE(trace.fetches, 1u);
  std::size_t fetched = 0, fetch_rpcs = 0;
  for (const TraceSpan& s : trace.spans) {
    if ((s.rec.flags & kSpanFlagFetched) != 0) {
      ++fetched;
      EXPECT_NE(s.rec.flags & kSpanFlagRemote, 0);
    }
    if (s.rec.name_id == kSpanNetTraceFetch) ++fetch_rpcs;
  }
  EXPECT_GE(fetched, 2u);  // server.request + children came via fetch
  EXPECT_EQ(fetch_rpcs, trace.fetches);

  // The fetched spans are real server spans, not placeholders.
  bool has_server_request = false;
  for (const TraceSpan& s : trace.spans) {
    if (s.rec.name_id == kSpanServerRequest &&
        (s.rec.flags & kSpanFlagFetched) != 0) {
      has_server_request = true;
    }
  }
  EXPECT_TRUE(has_server_request);
}

TEST(RemoteRouterTest, ProbeReportsMetricsPortFromPong) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_probe_mport");
  WriteGenerationDir(model, dir, 1);

  // Replica A exposes a metrics listener; replica B does not.
  ShardServerOptions with_metrics;
  with_metrics.dir = dir;
  with_metrics.shard = 0;
  with_metrics.metrics_port = 0;
  auto a = ShardServer::Start(with_metrics);
  ASSERT_TRUE(a.ok());
  ASSERT_GT((*a)->metrics_port(), 0);
  ShardServerOptions without_metrics;
  without_metrics.dir = dir;
  without_metrics.shard = 0;
  auto b = ShardServer::Start(without_metrics);
  ASSERT_TRUE(b.ok());

  RemoteRouterOptions options;
  options.replica_sets = {
      {{"127.0.0.1", (*a)->port()}, {"127.0.0.1", (*b)->port()}}};
  auto remote = RemoteShardRouter::Connect(options);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const auto health = (*remote)->ProbeReplicas();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_TRUE(health[0].healthy);
  EXPECT_EQ(health[0].metrics_port, (*a)->metrics_port());
  EXPECT_TRUE(health[1].healthy);
  EXPECT_EQ(health[1].metrics_port, -1);
}

// --------------------------------------------------- fleet federation

TEST(FedMetricsTest, MergeInjectsInstanceLabelsAndDedupsComments) {
  const std::string merged = MergePrometheusBodies(
      {{"s0:1",
        "# TYPE influmax_x_total counter\n"
        "influmax_x_total 5\n"
        "influmax_h{le=\"10\"} 2\n"},
       {"s1:2",
        "# TYPE influmax_x_total counter\n"
        "influmax_x_total 7\n"}});
  EXPECT_NE(merged.find("influmax_x_total{instance=\"s0:1\"} 5"),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("influmax_h{instance=\"s0:1\",le=\"10\"} 2"),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("influmax_x_total{instance=\"s1:2\"} 7"),
            std::string::npos)
      << merged;
  // The TYPE comment appears exactly once.
  const std::string type_line = "# TYPE influmax_x_total counter";
  const std::size_t first = merged.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(merged.find(type_line, first + 1), std::string::npos);
}

TEST(FedMetricsTest, FleetEndpointFederatesReplicaMetrics) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("net_fleet_metrics");
  WriteGenerationDir(model, dir, 2);

  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<FleetTarget> targets;
  for (int shard = 0; shard < 2; ++shard) {
    ShardServerOptions options;
    options.dir = dir;
    options.shard = shard;
    options.metrics_port = 0;
    auto server = ShardServer::Start(options);
    ASSERT_TRUE(server.ok());
    ASSERT_GT((*server)->metrics_port(), 0);
    targets.push_back({"127.0.0.1", (*server)->metrics_port(),
                       "shard" + std::to_string(shard)});
    servers.push_back(std::move(*server));
  }
  // A dead target must degrade to a comment, not fail the page.
  targets.push_back({"127.0.0.1", 1, "dead"});

  auto fleet = FleetMetricsServer::Start(0, targets);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  ASSERT_GT((*fleet)->port(), 0);
  EXPECT_EQ((*fleet)->num_targets(), 3u);

  auto merged = HttpGetBody("127.0.0.1", (*fleet)->port(), "/metrics",
                            Deadline::AfterMs(5000));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_NE(merged->find("instance=\"shard0\""), std::string::npos);
  EXPECT_NE(merged->find("instance=\"shard1\""), std::string::npos);
  EXPECT_NE(merged->find("# fleet scrape failed instance=\"dead\""),
            std::string::npos);

  auto health = HttpGetBody("127.0.0.1", (*fleet)->port(), "/healthz",
                            Deadline::AfterMs(5000));
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok targets=3\n");

  auto missing = HttpGetBody("127.0.0.1", (*fleet)->port(), "/nope",
                             Deadline::AfterMs(5000));
  EXPECT_FALSE(missing.ok());
}

}  // namespace
}  // namespace influmax
