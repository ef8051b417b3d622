#include "net/wire.h"

#include <cstring>

#include "common/failpoint.h"

namespace influmax {
namespace {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t FnvMix(std::uint64_t h, const std::uint8_t* data,
                     std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Header <-> its 32 exact wire bytes. memcpy-based, not a struct cast:
/// the struct's padding is compiler territory, the wire's is ours.
void EncodeHeader(const FrameHeader& header,
                  std::uint8_t out[kWireHeaderBytes]) {
  std::memcpy(out + 0, &header.payload_len, 4);
  out[4] = header.version;
  out[5] = header.type;
  out[6] = header.reserved;
  out[7] = header.flags;
  std::memcpy(out + 8, &header.generation, 8);
  std::memcpy(out + 16, &header.deadline_us, 8);
  std::memcpy(out + 24, &header.fingerprint, 8);
}

FrameHeader DecodeHeader(const std::uint8_t in[kWireHeaderBytes]) {
  FrameHeader header;
  std::memcpy(&header.payload_len, in + 0, 4);
  header.version = in[4];
  header.type = in[5];
  header.reserved = in[6];
  header.flags = in[7];
  std::memcpy(&header.generation, in + 8, 8);
  std::memcpy(&header.deadline_us, in + 16, 8);
  std::memcpy(&header.fingerprint, in + 24, 8);
  return header;
}

}  // namespace

std::uint64_t FingerprintFrame(const FrameHeader& header,
                               std::span<const std::uint8_t> payload) {
  FrameHeader unsigned_header = header;
  unsigned_header.fingerprint = 0;
  std::uint8_t bytes[kWireHeaderBytes];
  EncodeHeader(unsigned_header, bytes);
  std::uint64_t h = FnvMix(kFnvOffset, bytes, kWireHeaderBytes);
  return FnvMix(h, payload.data(), payload.size());
}

Status SendFrame(TcpConn& conn, Frame frame, const Deadline& deadline,
                 const char* failpoint_site) {
  frame.header.payload_len = static_cast<std::uint32_t>(frame.payload.size());
  frame.header.version = kWireVersion;
  frame.header.fingerprint = FingerprintFrame(frame.header, frame.payload);

  // One contiguous send: header + payload never interleave with another
  // thread's frame because a connection is single-owner, but a single
  // syscall also gives the torn failpoint one well-defined stream to
  // cut.
  std::vector<std::uint8_t> encoded(kWireHeaderBytes + frame.payload.size());
  EncodeHeader(frame.header, encoded.data());
  if (!frame.payload.empty()) {
    std::memcpy(encoded.data() + kWireHeaderBytes, frame.payload.data(),
                frame.payload.size());
  }

#ifdef INFLUMAX_FAILPOINTS
  if (auto hit = failpoint_internal::CheckSite(failpoint_site)) {
    if (hit->mode == FailpointMode::kTorn ||
        hit->mode == FailpointMode::kTornCrash) {
      // Send the frame's first `arg` bytes, then tear the stream: the
      // peer observes a short read at exactly that offset — the wire
      // equivalent of BinaryWriter's torn-write cut.
      const std::size_t keep =
          hit->arg < encoded.size() ? static_cast<std::size_t>(hit->arg)
                                    : encoded.size();
      (void)conn.SendAll(encoded.data(), keep, deadline);
      failpoint_internal::RecordTornTrip(failpoint_site);
      conn.Abort();
      if (hit->mode == FailpointMode::kTornCrash) {
        failpoint_internal::Crash(failpoint_site);
      }
      return Status::Unavailable(std::string("injected failpoint '") +
                                 failpoint_site +
                                 "': frame torn at byte offset " +
                                 std::to_string(keep));
    }
    if (Status st = failpoint_internal::HitEffect(failpoint_site, *hit);
        !st.ok()) {
      conn.Abort();
      return Status::Unavailable(st.message());
    }
  }
#endif

  return conn.SendAll(encoded.data(), encoded.size(), deadline);
}

Result<Frame> RecvFrame(TcpConn& conn, const Deadline& deadline) {
  INFLUMAX_FAILPOINT("net.frame.recv");

  std::uint8_t header_bytes[kWireHeaderBytes];
  std::size_t got = 0;
  if (Status st = conn.RecvAll(header_bytes, kWireHeaderBytes, deadline, &got);
      !st.ok()) {
    if (st.code() == StatusCode::kUnavailable && got > 0) {
      return Status::Unavailable("torn frame: header cut at byte offset " +
                                 std::to_string(got) + " of " +
                                 std::to_string(kWireHeaderBytes));
    }
    return st;
  }

  Frame frame;
  frame.header = DecodeHeader(header_bytes);
  if (frame.header.version < kWireMinVersion ||
      frame.header.version > kWireVersion) {
    return Status::Corruption(
        "frame version " + std::to_string(frame.header.version) +
        " outside supported [" + std::to_string(kWireMinVersion) + ", " +
        std::to_string(kWireVersion) + "] at byte offset 4");
  }
  // The allocation guard: a hostile/corrupt length prefix is rejected
  // here, before any resize.
  if (frame.header.payload_len > kMaxFramePayloadBytes) {
    return Status::Corruption(
        "frame payload length " + std::to_string(frame.header.payload_len) +
        " at byte offset 0 exceeds limit " +
        std::to_string(kMaxFramePayloadBytes));
  }

  frame.payload.resize(frame.header.payload_len);
  if (frame.header.payload_len > 0) {
    if (Status st = conn.RecvAll(frame.payload.data(),
                                 frame.payload.size(), deadline, &got);
        !st.ok()) {
      if (st.code() == StatusCode::kUnavailable) {
        return Status::Unavailable(
            "torn frame: payload cut at byte offset " +
            std::to_string(kWireHeaderBytes + got) + " of " +
            std::to_string(kWireHeaderBytes + frame.payload.size()));
      }
      return st;
    }
  }

  if (FingerprintFrame(frame.header, frame.payload) !=
      frame.header.fingerprint) {
    return Status::Corruption("frame fingerprint mismatch (" +
                              std::to_string(frame.payload.size()) +
                              "-byte payload)");
  }
  return frame;
}

// -------------------------------------------------- trace prefixes (v2)

void EncodeSpanBlock(const SpanBlock& msg, BufferWriter* out) {
  out->WriteU64(msg.server_recv_ns);
  out->WriteU64(msg.server_send_ns);
  out->WriteU64(msg.spans.size());
  for (const TraceSpan& s : msg.spans) {
    out->WriteU64(s.span_id);
    out->WriteU64(s.parent_span_id);
    out->WriteU32(static_cast<std::uint32_t>(s.rec.name_id) |
                  (static_cast<std::uint32_t>(s.rec.flags) << 16));
    out->WriteU32(s.rec.origin);
    out->WriteU64(s.rec.start_ns);
    out->WriteU64(s.rec.duration_ns);
    out->WriteU64(s.rec.detail);
  }
}

Result<SpanBlock> DecodeSpanBlock(BufferReader* in) {
  SpanBlock msg;
  msg.server_recv_ns = in->ReadU64();
  msg.server_send_ns = in->ReadU64();
  const std::uint64_t count = in->ReadU64();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  if (count > kMaxWireSpans) {
    return Status::Corruption("span block of " + std::to_string(count) +
                              " spans exceeds limit " +
                              std::to_string(kMaxWireSpans));
  }
  // 48 bytes of fixed fields per span; bound before the reserve so a
  // hostile count cannot out-allocate the bytes actually present.
  if (count > in->remaining() / 48) {
    return Status::Corruption("span block of " + std::to_string(count) +
                              " spans exceeds the " +
                              std::to_string(in->remaining()) +
                              " bytes remaining");
  }
  msg.spans.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceSpan s;
    s.span_id = in->ReadU64();
    s.parent_span_id = in->ReadU64();
    const std::uint32_t packed = in->ReadU32();
    s.rec.name_id = static_cast<std::uint16_t>(packed & 0xffffu);
    s.rec.flags = static_cast<std::uint16_t>(packed >> 16);
    s.rec.origin = in->ReadU32();
    s.rec.start_ns = in->ReadU64();
    s.rec.duration_ns = in->ReadU64();
    s.rec.detail = in->ReadU64();
    msg.spans.push_back(s);
  }
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void PrependTraceContext(const TraceContext& ctx,
                         std::vector<std::uint8_t>* payload) {
  std::uint8_t prefix[kTraceContextBytes];
  std::memcpy(prefix + 0, &ctx.trace_id, 8);
  std::memcpy(prefix + 8, &ctx.parent_span_id, 8);
  payload->insert(payload->begin(), prefix, prefix + kTraceContextBytes);
}

Result<TraceContext> StripTraceContext(std::vector<std::uint8_t>* payload) {
  if (payload->size() < kTraceContextBytes) {
    return Status::Corruption("traced frame payload of " +
                              std::to_string(payload->size()) +
                              " bytes is shorter than the " +
                              std::to_string(kTraceContextBytes) +
                              "-byte trace context");
  }
  TraceContext ctx;
  std::memcpy(&ctx.trace_id, payload->data() + 0, 8);
  std::memcpy(&ctx.parent_span_id, payload->data() + 8, 8);
  payload->erase(payload->begin(), payload->begin() + kTraceContextBytes);
  return ctx;
}

void PrependSpanBlock(const SpanBlock& block,
                      std::vector<std::uint8_t>* payload) {
  BufferWriter prefix;
  EncodeSpanBlock(block, &prefix);
  payload->insert(payload->begin(), prefix.buffer().begin(),
                  prefix.buffer().end());
}

Result<SpanBlock> StripSpanBlock(std::vector<std::uint8_t>* payload) {
  BufferReader reader(*payload);
  Result<SpanBlock> block = DecodeSpanBlock(&reader);
  if (!block.ok()) return block.status();
  payload->erase(payload->begin(),
                 payload->begin() +
                     static_cast<std::ptrdiff_t>(reader.bytes_read()));
  return block;
}

// ------------------------------------------------------------ messages

void EncodeHello(const HelloRequest& msg, BufferWriter* out) {
  out->WriteU64(msg.generation_pin);
}

Result<HelloRequest> DecodeHello(BufferReader* in) {
  HelloRequest msg;
  msg.generation_pin = in->ReadU64();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeHelloOk(const HelloResponse& msg, BufferWriter* out) {
  out->WriteU64(msg.generation);
  out->WriteU32(msg.num_users);
  out->WriteU32(msg.num_actions);
  out->WriteU32(msg.action_begin);
  out->WriteU32(msg.action_end);
  out->WriteU64(msg.graph_fingerprint);
  out->WriteU64(msg.log_fingerprint);
  out->WriteDouble(msg.truncation_threshold);
  out->WriteVector(msg.au);
  out->WriteVector(msg.frozen_seeds);
}

Result<HelloResponse> DecodeHelloOk(BufferReader* in) {
  HelloResponse msg;
  msg.generation = in->ReadU64();
  msg.num_users = in->ReadU32();
  msg.num_actions = in->ReadU32();
  msg.action_begin = in->ReadU32();
  msg.action_end = in->ReadU32();
  msg.graph_fingerprint = in->ReadU64();
  msg.log_fingerprint = in->ReadU64();
  msg.truncation_threshold = in->ReadDouble();
  msg.au = in->ReadVector<std::uint32_t>(kMaxWireElements);
  msg.frozen_seeds = in->ReadVector<NodeId>(kMaxWireElements);
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodePong(const PongResponse& msg, BufferWriter* out) {
  out->WriteU64(msg.generation);
  out->WriteU32(msg.action_begin);
  out->WriteU32(msg.action_end);
  out->WriteU32(msg.sessions_active);
  out->WriteU32(static_cast<std::uint32_t>(msg.metrics_port));
}

Result<PongResponse> DecodePong(BufferReader* in) {
  PongResponse msg;
  msg.generation = in->ReadU64();
  msg.action_begin = in->ReadU32();
  msg.action_end = in->ReadU32();
  msg.sessions_active = in->ReadU32();
  // v2 appended metrics_port; a v1 pong simply ends here, which decodes
  // as "metrics endpoint unknown" rather than an error.
  if (in->remaining() >= 4) {
    msg.metrics_port = static_cast<std::int32_t>(in->ReadU32());
  }
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeFold(const FoldRequest& msg, BufferWriter* out) {
  out->WriteU32(msg.node);
  out->WriteDouble(msg.acc);
}

Result<FoldRequest> DecodeFold(BufferReader* in) {
  FoldRequest msg;
  msg.node = in->ReadU32();
  msg.acc = in->ReadDouble();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeFoldOk(const FoldResponse& msg, BufferWriter* out) {
  out->WriteDouble(msg.acc);
}

Result<FoldResponse> DecodeFoldOk(BufferReader* in) {
  FoldResponse msg;
  msg.acc = in->ReadDouble();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeGainPartials(const GainPartialsRequest& msg, BufferWriter* out) {
  out->WriteVector(msg.nodes);
}

Result<GainPartialsRequest> DecodeGainPartials(BufferReader* in) {
  GainPartialsRequest msg;
  msg.nodes = in->ReadVector<NodeId>(kMaxWireElements);
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeGainPartialsOk(const GainPartialsResponse& msg, BufferWriter* out) {
  out->WriteVector(msg.partials);
}

Result<GainPartialsResponse> DecodeGainPartialsOk(BufferReader* in) {
  GainPartialsResponse msg;
  msg.partials = in->ReadVector<GainAccum>(kMaxGainNodesPerRequest);
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  for (std::size_t i = 0; i < msg.partials.size(); ++i) {
    if (msg.partials[i] < 0 || msg.partials[i] >= kMaxGainPartial) {
      return Status::Corruption("gain partials: partial " +
                                std::to_string(i) + " is out of range");
    }
  }
  return msg;
}

void EncodeCommit(const CommitRequest& msg, BufferWriter* out) {
  out->WriteU32(msg.node);
}

Result<CommitRequest> DecodeCommit(BufferReader* in) {
  CommitRequest msg;
  msg.node = in->ReadU32();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeCommitOk(const CommitResponse& msg, BufferWriter* out) {
  out->WriteU32(msg.session_seeds);
}

Result<CommitResponse> DecodeCommitOk(BufferReader* in) {
  CommitResponse msg;
  msg.session_seeds = in->ReadU32();
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

void EncodeError(const ErrorResponse& msg, BufferWriter* out) {
  out->WriteU32(msg.code);
  out->WriteString(msg.message);
}

Result<ErrorResponse> DecodeError(BufferReader* in) {
  ErrorResponse msg;
  msg.code = in->ReadU32();
  msg.message = in->ReadString(kMaxWireMessageBytes);
  INFLUMAX_RETURN_IF_ERROR(in->Finish());
  return msg;
}

ErrorResponse ErrorFromStatus(const Status& status) {
  return ErrorResponse{static_cast<std::uint32_t>(status.code()),
                       status.message()};
}

Status StatusFromError(const ErrorResponse& error) {
  const std::string& m = error.message;
  switch (static_cast<StatusCode>(error.code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(m);
    case StatusCode::kNotFound:
      return Status::NotFound(m);
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(m);
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(m);
    case StatusCode::kIoError:
      return Status::IoError(m);
    case StatusCode::kCorruption:
      return Status::Corruption(m);
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(m);
    case StatusCode::kInternal:
      return Status::Internal(m);
    case StatusCode::kUnavailable:
      return Status::Unavailable(m);
  }
  return Status::Internal("unknown wire status code " +
                          std::to_string(error.code) + ": " + m);
}

}  // namespace influmax
