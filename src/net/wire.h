#ifndef INFLUMAX_NET_WIRE_H_
#define INFLUMAX_NET_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/fixed_gain.h"
#include "net/socket.h"
#include "obs/trace.h"

namespace influmax {

/// The shard-serving wire protocol (docs/networking.md): length-prefixed
/// binary frames over TCP, one request frame -> one response frame per
/// RPC, payloads serialized with common/binary_io's BufferWriter/
/// BufferReader (the same typed-section grammar as every on-disk
/// container).
///
/// Frame layout (little-endian, host == wire like the snapshot files):
///   u32 payload_len      bytes after this 32-byte header
///   u8  version          sender's wire version; the receiver accepts
///                        [kWireMinVersion, kWireVersion] so v1 frames
///                        still parse (the flags byte below was v1's
///                        always-zero reserved byte)
///   u8  type             MsgType
///   u8  reserved         zero; a server refuses a request that sets it
///                        (it carried a kernel mode before fixed-point
///                        gains)
///   u8  flags            kFrameFlag* bits; v2 (docs/tracing.md). A set
///                        kFrameFlagTraced means the payload begins with
///                        a trace-context prefix (requests) or a
///                        span-block prefix (responses)
///   u64 generation       the client's generation pin (0 = none/hello)
///   u64 deadline_us      REMAINING budget at send; kNoDeadlineUs = none.
///                        Remaining-not-absolute because two machines
///                        share no monotonic epoch; the receiver rebuilds
///                        Deadline::AfterUs(deadline_us) at receipt.
///   u64 fingerprint      FNV-1a over the header (this field zeroed) +
///                        payload; a torn or bit-flipped frame fails
///                        closed as Corruption, which the client treats
///                        as a failover trigger.
///
/// Defensive bounds mirror the snapshot readers: payload_len is checked
/// against kMaxFramePayloadBytes BEFORE any allocation, and every
/// variable-length payload field re-validates its own length against
/// both a semantic cap and the bytes actually present.
inline constexpr std::uint8_t kWireVersion = 2;
/// Oldest version this build still accepts. v1 == v2 minus the trace
/// machinery: a v1 frame's flags byte is zero, so it decodes as an
/// untraced v2 frame bit-for-bit.
inline constexpr std::uint8_t kWireMinVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 32;
inline constexpr std::uint32_t kMaxFramePayloadBytes = 256u << 20;
/// Caps every user/seed vector a frame can carry.
inline constexpr std::uint64_t kMaxWireElements = 1u << 28;
inline constexpr std::uint64_t kMaxWireMessageBytes = 1u << 16;
/// Caps the span count of one wire span block (trace piggyback / fetch).
inline constexpr std::uint64_t kMaxWireSpans = 4096;

/// FrameHeader::flags bits (wire v2, docs/tracing.md).
/// kFrameFlagTraced: the payload carries a trace prefix — a 16-byte
/// trace context on requests, a span block on responses.
/// kFrameFlagTraceOverflow (responses): the span block exceeded the
/// server's piggyback cap; the prefix carries only the clock anchors and
/// the spans wait server-side for a kTraceFetch.
inline constexpr std::uint8_t kFrameFlagTraced = 1u << 0;
inline constexpr std::uint8_t kFrameFlagTraceOverflow = 1u << 1;

/// Caps the nodes of one kGainPartials request so its reply — 16 bytes
/// per node — fills at most half of kMaxFramePayloadBytes. A server
/// refuses a longer node list before any gain work, and a client
/// refuses a longer reply; the client splits the CELF initial pass into
/// batches under it.
inline constexpr std::uint64_t kMaxGainNodesPerRequest =
    kMaxFramePayloadBytes / (2 * sizeof(GainAccum));

/// Type ids are wire contract: retired ids are never reused. 5-8 were
/// the chained fold (kFold/kFoldOk, kFoldBatch/kFoldBatchOk), 15-16 the
/// per-action term reply (kGainTerms/kGainTermsOk), both replaced by
/// kGainPartials; a server answers a retired id with an InvalidArgument
/// error frame, like any unknown type.
enum class MsgType : std::uint8_t {
  kError = 0,
  kHello = 1,
  kHelloOk = 2,
  kPing = 3,
  kPong = 4,
  kCommit = 9,
  kCommitOk = 10,
  kReset = 11,
  kResetOk = 12,
  // v2: retrieves the span block a kFrameFlagTraceOverflow response left
  // behind. Session-free and generation-free, like kPing.
  kTraceFetch = 13,
  kTraceFetchOk = 14,
  // The fan-out gain request: one fixed-point partial per node from
  // every slot, summed by the client (docs/networking.md).
  kGainPartials = 17,
  kGainPartialsOk = 18,
};

struct FrameHeader {
  std::uint32_t payload_len = 0;
  std::uint8_t version = kWireVersion;
  std::uint8_t type = 0;
  std::uint8_t reserved = 0;
  std::uint8_t flags = 0;
  std::uint64_t generation = 0;
  std::uint64_t deadline_us = Deadline::kNoDeadlineUs;
  std::uint64_t fingerprint = 0;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;
};

/// FNV-1a 64 of the header (fingerprint field zeroed) + payload.
std::uint64_t FingerprintFrame(const FrameHeader& header,
                               std::span<const std::uint8_t> payload);

/// Sends one frame (header fingerprint filled in here) within
/// `deadline`. `failpoint_site` names the failpoint consulted per send
/// — "net.frame.send" for client requests, "net.server.send" for server
/// responses, so a chaos test can tear one side's stream without
/// touching the other (the registry is process-global and loopback
/// tests host both sides). Effects: error fails the send, torn cuts the
/// encoded frame at byte offset `arg` and drops the stream — the peer
/// sees a short read at that exact offset (tests/net_fault_test.cc).
Status SendFrame(TcpConn& conn, Frame frame, const Deadline& deadline,
                 const char* failpoint_site = "net.frame.send");

/// Receives one frame within `deadline`, validating version, payload
/// bound (before allocation), and fingerprint. Unavailable on peer
/// loss/deadline (byte offset named), Corruption on a malformed or
/// fingerprint-mismatched frame. Failpoint site "net.frame.recv".
Result<Frame> RecvFrame(TcpConn& conn, const Deadline& deadline);

// ------------------------------------------------- trace prefixes (v2)

/// The distributed-tracing context a traced request carries as a 16-byte
/// payload prefix (docs/tracing.md): which trace the work belongs to and
/// which client-side span (the net.rpc span) adopts the server's spans.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
};

inline constexpr std::size_t kTraceContextBytes = 16;

/// The spans a traced response carries back, prefixed to its payload (or
/// fetched via kTraceFetch when over the piggyback cap). The two clock
/// anchors are the server's MonotonicNowNs() at request receipt and at
/// response build — the client re-anchors every span onto its own
/// timeline via the RPC midpoint (docs/tracing.md has the math), so an
/// overflowed block still normalizes even before its spans arrive.
/// TraceSpan.rec.origin ships as 0; the client stamps it.
struct SpanBlock {
  std::uint64_t server_recv_ns = 0;
  std::uint64_t server_send_ns = 0;
  std::vector<TraceSpan> spans;
};

/// Span-block <-> typed sections, for the kTraceFetchOk payload.
void EncodeSpanBlock(const SpanBlock& msg, BufferWriter* out);
Result<SpanBlock> DecodeSpanBlock(BufferReader* in);

/// Prefix helpers: Prepend inserts the encoded form at the front of an
/// already-built payload; Strip decodes and removes it, leaving the
/// payload the message codecs expect. Deliberately unconditional (not
/// obs-gated): an INFLUMAX_OBS_OFF peer must still parse a traced
/// frame's payload correctly even though it records nothing.
void PrependTraceContext(const TraceContext& ctx,
                         std::vector<std::uint8_t>* payload);
Result<TraceContext> StripTraceContext(std::vector<std::uint8_t>* payload);
void PrependSpanBlock(const SpanBlock& block,
                      std::vector<std::uint8_t>* payload);
Result<SpanBlock> StripSpanBlock(std::vector<std::uint8_t>* payload);

// ----------------------------------------------------------- messages

/// Client -> server, once per connection. generation_pin = 0 accepts
/// whatever the server currently serves; nonzero demands exactly that
/// generation (the re-pin across reconnect path).
struct HelloRequest {
  std::uint64_t generation_pin = 0;
};

/// The server's identity card: everything the client needs to run the
/// CELF machinery locally (global A_u, frozen seeds) and to place this
/// server in the range order (action_begin/end of ITS shards).
struct HelloResponse {
  std::uint64_t generation = 0;
  NodeId num_users = 0;
  ActionId num_actions = 0;
  ActionId action_begin = 0;
  ActionId action_end = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t log_fingerprint = 0;
  double truncation_threshold = 0.0;
  std::vector<std::uint32_t> au;
  std::vector<NodeId> frozen_seeds;
};

/// Health probe; carried state lets the prober double as a generation
/// watcher.
struct PongResponse {
  std::uint64_t generation = 0;
  ActionId action_begin = 0;
  ActionId action_end = 0;
  std::uint32_t sessions_active = 0;
  /// Port of this server's /metrics HTTP listener; -1 when disabled.
  /// v2 field (absent from v1 pongs, decoded as -1) — the discovery hook
  /// for fleet metrics federation (docs/observability.md).
  std::int32_t metrics_port = -1;
};

/// The partial gains of `nodes` over this server's shards. A server
/// refuses more than kMaxGainNodesPerRequest nodes with InvalidArgument.
struct GainPartialsRequest {
  std::vector<NodeId> nodes;
};

/// partials[i] is nodes[i]'s fixed-point partial gain over this server's
/// shards — the sum of their SnapshotQueryEngine::PartialGain values,
/// shipped as 16-byte little-endian integers. Every term is a
/// non-negative FixedGain (< 2^63) and a node has fewer than 2^32
/// actions, so an honest partial lies in [0, kMaxGainPartial); anything
/// else marks a corrupt reply, and the bound keeps the client's sum over
/// slots from overflowing.
inline constexpr GainAccum kMaxGainPartial = GainAccum{1} << 95;

struct GainPartialsResponse {
  std::vector<GainAccum> partials;
};

/// The retired chained-fold step (type ids 5/6). No longer on the wire;
/// the struct and its codecs stay because perfbench's wire-codec probe
/// (net.wire.fold_codec_ns) is built against them.
struct FoldRequest {
  NodeId node = 0;
  double acc = 0.0;
};

struct FoldResponse {
  double acc = 0.0;
};

struct CommitRequest {
  NodeId node = 0;
};

struct CommitResponse {
  std::uint32_t session_seeds = 0;
};

/// Status carried over the wire; code round-trips through StatusCode's
/// integer values.
struct ErrorResponse {
  std::uint32_t code = 0;
  std::string message;
};

void EncodeHello(const HelloRequest& msg, BufferWriter* out);
Result<HelloRequest> DecodeHello(BufferReader* in);
void EncodeHelloOk(const HelloResponse& msg, BufferWriter* out);
Result<HelloResponse> DecodeHelloOk(BufferReader* in);
void EncodePong(const PongResponse& msg, BufferWriter* out);
Result<PongResponse> DecodePong(BufferReader* in);
void EncodeFold(const FoldRequest& msg, BufferWriter* out);
Result<FoldRequest> DecodeFold(BufferReader* in);
void EncodeFoldOk(const FoldResponse& msg, BufferWriter* out);
Result<FoldResponse> DecodeFoldOk(BufferReader* in);
void EncodeGainPartials(const GainPartialsRequest& msg, BufferWriter* out);
Result<GainPartialsRequest> DecodeGainPartials(BufferReader* in);
void EncodeGainPartialsOk(const GainPartialsResponse& msg, BufferWriter* out);
/// Rejects (Corruption) a reply holding a partial outside
/// [0, kMaxGainPartial).
Result<GainPartialsResponse> DecodeGainPartialsOk(BufferReader* in);
void EncodeCommit(const CommitRequest& msg, BufferWriter* out);
Result<CommitRequest> DecodeCommit(BufferReader* in);
void EncodeCommitOk(const CommitResponse& msg, BufferWriter* out);
Result<CommitResponse> DecodeCommitOk(BufferReader* in);
void EncodeError(const ErrorResponse& msg, BufferWriter* out);
Result<ErrorResponse> DecodeError(BufferReader* in);

/// ErrorResponse <-> Status. Unknown codes decode as Internal (a newer
/// peer), never silently as OK.
ErrorResponse ErrorFromStatus(const Status& status);
Status StatusFromError(const ErrorResponse& error);

}  // namespace influmax

#endif  // INFLUMAX_NET_WIRE_H_
