#include "net/remote_router.h"

#include <algorithm>
#include <utility>

#include "obs/net_metrics.h"
#include "obs/span_names.h"

namespace influmax {
namespace {

/// CELF initial-pass batch budget in (1 + A_x) units, a sixteenth of the
/// server's kMaxGainTermsPerRequest refusal line: at 4 slots a per-slot
/// reply stays near half a MiB, so the prefetch adds little to a shard
/// server's peak memory.
constexpr std::uint64_t kPrefetchBatchBudget = kMaxGainTermsPerRequest / 16;

/// Failures that justify trying another replica: the transient-network
/// class (refused/reset/timed-out/closed, a replica at capacity or past
/// the deadline) plus Corruption — a torn or fingerprint-mismatched
/// frame condemns this replica's STREAM, not the request, so the same
/// request is deterministic-retryable elsewhere.
bool IsFailoverTrigger(const Status& status) {
  return IsTransientError(status) ||
         status.code() == StatusCode::kCorruption;
}

}  // namespace

Result<std::vector<std::vector<RemoteEndpoint>>> ParseEndpointSpec(
    const std::string& spec) {
  std::vector<std::vector<RemoteEndpoint>> slots;
  std::size_t slot_begin = 0;
  for (std::size_t i = 0; i <= spec.size(); ++i) {
    if (i != spec.size() && spec[i] != ',') continue;
    const std::string slot_str = spec.substr(slot_begin, i - slot_begin);
    slot_begin = i + 1;
    std::vector<RemoteEndpoint> replicas;
    std::size_t ep_begin = 0;
    for (std::size_t j = 0; j <= slot_str.size(); ++j) {
      if (j != slot_str.size() && slot_str[j] != '|') continue;
      const std::string ep = slot_str.substr(ep_begin, j - ep_begin);
      ep_begin = j + 1;
      const std::size_t colon = ep.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == ep.size()) {
        return Status::InvalidArgument(
            "endpoint spec: '" + ep + "' is not host:port (slots separated "
            "by ',', replicas of one slot by '|')");
      }
      int port = 0;
      for (std::size_t k = colon + 1; k < ep.size(); ++k) {
        if (ep[k] < '0' || ep[k] > '9' || port > 65535) {
          return Status::InvalidArgument("endpoint spec: bad port in '" +
                                         ep + "'");
        }
        port = port * 10 + (ep[k] - '0');
      }
      if (port < 1 || port > 65535) {
        return Status::InvalidArgument("endpoint spec: bad port in '" + ep +
                                       "'");
      }
      replicas.push_back(RemoteEndpoint{ep.substr(0, colon), port});
    }
    if (replicas.empty()) {
      return Status::InvalidArgument("endpoint spec: empty slot in '" + spec +
                                     "'");
    }
    slots.push_back(std::move(replicas));
  }
  if (slots.empty()) {
    return Status::InvalidArgument("endpoint spec: no endpoints in '" + spec +
                                   "'");
  }
  return slots;
}

Result<std::unique_ptr<RemoteShardRouter>> RemoteShardRouter::Connect(
    const RemoteRouterOptions& options) {
  if (options.replica_sets.empty()) {
    return Status::InvalidArgument("remote router: no replica sets");
  }
  for (std::size_t s = 0; s < options.replica_sets.size(); ++s) {
    if (options.replica_sets[s].empty()) {
      return Status::InvalidArgument("remote router: slot " +
                                     std::to_string(s) + " has no replicas");
    }
  }
  std::unique_ptr<RemoteShardRouter> router(new RemoteShardRouter());
  router->options_ = options;
  router->kernel_mode_ = options.kernel_mode;
  router->slots_.resize(options.replica_sets.size());
  for (std::size_t s = 0; s < options.replica_sets.size(); ++s) {
    router->slots_[s].replicas = options.replica_sets[s];
    router->slots_[s].index = s;
  }
  INFLUMAX_RETURN_IF_ERROR(router->ConnectAll(options.generation_pin));
  return router;
}

RemoteShardRouter::~RemoteShardRouter() {
  for (Slot& slot : slots_) DropConn(slot);
}

Deadline RemoteShardRouter::RpcDeadline() const {
  return options_.rpc_deadline_ms == 0
             ? Deadline::Infinite()
             : Deadline::AfterMs(options_.rpc_deadline_ms);
}

Status RemoteShardRouter::ConnectAll(std::uint64_t pin) {
  generation_ = pin;
  num_users_ = 0;
  num_actions_ = 0;
  committed_.clear();
  poisoned_ = Status::OK();
  for (Slot& slot : slots_) {
    DropConn(slot);
    slot.range_known = false;
  }
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    // A ping through the full CallSlot ladder: connects (hello + empty
    // replay) with replica failover and retry, so a dead first replica
    // never blocks startup.
    BufferWriter empty;
    INFLUMAX_RETURN_IF_ERROR(
        CallSlot(s, MsgType::kPing, empty, MsgType::kPong, nullptr,
                 RpcDeadline()));
    if (s == 0) {
      // Adopt slot 0's identity; every other slot (and every later
      // reconnect) is validated against it.
      const HelloResponse& h = slots_[0].hello;
      generation_ = h.generation;
      num_users_ = h.num_users;
      num_actions_ = h.num_actions;
      graph_fingerprint_ = h.graph_fingerprint;
      log_fingerprint_ = h.log_fingerprint;
      au_ = h.au;
      if (au_.size() != num_users_) {
        return Status::Corruption(
            "hello A_u has " + std::to_string(au_.size()) + " entries for " +
            std::to_string(num_users_) + " users");
      }
      is_frozen_.assign(num_users_, 0);
      for (NodeId x : h.frozen_seeds) {
        if (x >= num_users_) {
          return Status::Corruption("hello frozen seed " + std::to_string(x) +
                                    " out of range");
        }
        is_frozen_[x] = 1;
      }
      is_seed_ = is_frozen_;
      memo_gain_.assign(num_users_, 0.0);
      memo_stamp_.assign(num_users_, 0);
      prefetch_gain_.assign(num_users_, 0.0);
      prefetch_valid_.assign(num_users_, 0);
    }
  }

  // Topology: one generation/dataset, ranges contiguous ascending and
  // covering [0, num_actions) — the precondition of the ordered client
  // fold.
  ActionId expect = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const HelloResponse& h = slots_[s].hello;
    if (h.generation != generation_ || h.num_users != num_users_ ||
        h.num_actions != num_actions_ ||
        h.graph_fingerprint != graph_fingerprint_ ||
        h.log_fingerprint != log_fingerprint_) {
      return Status::FailedPrecondition(
          "slot " + std::to_string(s) + " serves generation " +
          std::to_string(h.generation) + " of a different dataset than slot "
          "0 (generation " + std::to_string(generation_) + ")");
    }
    if (h.action_begin != expect || h.action_end < h.action_begin) {
      return Status::FailedPrecondition(
          "slot " + std::to_string(s) + " covers actions [" +
          std::to_string(h.action_begin) + ", " +
          std::to_string(h.action_end) + ") but the range-order fold needs "
          "it to start at " + std::to_string(expect) +
          " (slots must be listed in ascending range order)");
    }
    expect = h.action_end;
    slots_[s].range_known = true;
  }
  if (expect != num_actions_) {
    return Status::FailedPrecondition(
        "slots cover actions [0, " + std::to_string(expect) + ") of " +
        std::to_string(num_actions_) + " — a range slot is missing");
  }
  return Status::OK();
}

void RemoteShardRouter::DropConn(Slot& slot) {
  if (slot.conn.valid()) {
    slot.conn.Close();
    GetNetMetrics().connections->Add(-1);
  }
  slot.hello_done = false;
}

Status RemoteShardRouter::ConnectActiveReplica(Slot& slot,
                                               const Deadline& deadline) {
  const NetMetrics& nm = GetNetMetrics();
  DropConn(slot);
  const RemoteEndpoint& ep = slot.replicas[slot.active];
  Deadline dial = options_.connect_timeout_ms == 0
                      ? deadline
                      : Deadline::AfterMs(options_.connect_timeout_ms);
  if (deadline.remaining_us() < dial.remaining_us()) dial = deadline;
  Result<TcpConn> conn = TcpConn::Connect(ep.host, ep.port, dial);
  if (!conn.ok()) return conn.status();
  slot.conn = std::move(conn).value();
  nm.connections->Add(1);

  // Hello pins the router's generation (0 on first contact adopts the
  // server's current one); the server refuses a pin it cannot serve, so
  // a failover never silently lands on a stale replica.
  BufferWriter hello_req;
  EncodeHello(HelloRequest{generation_}, &hello_req);
  std::vector<std::uint8_t> payload;
  INFLUMAX_RETURN_IF_ERROR(DoRequest(slot, MsgType::kHello, hello_req,
                                     MsgType::kHelloOk, &payload, deadline));
  BufferReader reader(payload);
  Result<HelloResponse> hello = DecodeHelloOk(&reader);
  if (!hello.ok()) return hello.status();
  if (generation_ != 0 && hello->generation != generation_) {
    return Status::FailedPrecondition(
        "replica serves generation " + std::to_string(hello->generation) +
        ", session is pinned to " + std::to_string(generation_));
  }
  if (num_users_ != 0 &&
      (hello->num_users != num_users_ || hello->num_actions != num_actions_ ||
       hello->graph_fingerprint != graph_fingerprint_ ||
       hello->log_fingerprint != log_fingerprint_)) {
    return Status::FailedPrecondition(
        "replica serves a different dataset than the session was built "
        "against");
  }
  if (slot.range_known && (hello->action_begin != slot.action_begin ||
                           hello->action_end != slot.action_end)) {
    return Status::FailedPrecondition(
        "replica covers actions [" + std::to_string(hello->action_begin) +
        ", " + std::to_string(hello->action_end) + ") but its slot owns [" +
        std::to_string(slot.action_begin) + ", " +
        std::to_string(slot.action_end) + ")");
  }
  slot.hello = std::move(hello).value();
  slot.action_begin = slot.hello.action_begin;
  slot.action_end = slot.hello.action_end;
  slot.hello_done = true;

  // The server-side session behind this connection is brand new, so the
  // client's committed seeds are replayed in commit order — an exact
  // rebuild (commits are deterministic state transitions), which is why
  // failover can resume a half-done query bit-identically.
  for (NodeId x : committed_) {
    BufferWriter commit_req;
    EncodeCommit(CommitRequest{x}, &commit_req);
    std::vector<std::uint8_t> commit_payload;
    if (Status st = DoRequest(slot, MsgType::kCommit, commit_req,
                              MsgType::kCommitOk, &commit_payload, deadline);
        !st.ok()) {
      slot.hello_done = false;
      return st;
    }
    nm.commit_replays->Increment();
  }
  if (slot.ever_connected) nm.reconnects->Increment();
  slot.ever_connected = true;
  return Status::OK();
}

Status RemoteShardRouter::DoRequest(Slot& slot, MsgType type,
                                    const BufferWriter& request,
                                    MsgType ok_type,
                                    std::vector<std::uint8_t>* response,
                                    const Deadline& deadline,
                                    std::uint64_t parent_span_id) {
  PendingRpc rpc;
  INFLUMAX_RETURN_IF_ERROR(
      SendRequest(slot, type, request, deadline, parent_span_id, &rpc));
  return RecvResponse(slot, rpc, ok_type, response, deadline);
}

Status RemoteShardRouter::SendRequest(Slot& slot, MsgType type,
                                      const BufferWriter& request,
                                      const Deadline& deadline,
                                      std::uint64_t parent_span_id,
                                      PendingRpc* rpc) {
  GetNetMetrics().rpc_count->Increment();
  rpc->type = type;
  rpc->span_id = 0;
  rpc->parent_span_id = 0;
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(type);
  frame.header.kernel_mode = static_cast<std::uint8_t>(kernel_mode_);
  frame.header.generation = generation_;
  frame.header.deadline_us = deadline.remaining_us();
  frame.payload = request.buffer();
  if (trace_ != nullptr && trace_->active()) {
    // The net.rpc span adopts the server's span subtree: its id rides in
    // the trace-context prefix and comes back as the server.request
    // span's parent (docs/tracing.md).
    rpc->span_id = trace_->NextSpanId();
    rpc->parent_span_id =
        parent_span_id != 0 ? parent_span_id : trace_->root_span_id();
    frame.header.flags |= kFrameFlagTraced;
    PrependTraceContext(TraceContext{trace_->trace_id(), rpc->span_id},
                        &frame.payload);
  }
  rpc->t0 = MonotonicNowNs();
  return SendFrame(slot.conn, std::move(frame), deadline);
}

Status RemoteShardRouter::RecvResponse(Slot& slot, const PendingRpc& rpc,
                                       MsgType ok_type,
                                       std::vector<std::uint8_t>* response,
                                       const Deadline& deadline) {
  Result<Frame> resp = RecvFrame(slot.conn, deadline);
  if (!resp.ok()) return resp.status();
  const std::uint64_t t1 = MonotonicNowNs();
  GetNetMetrics().rpc_latency->Record(t1 - rpc.t0);

  // A traced response's span-block prefix is stripped whatever the
  // local trace state — error frames carry one too, and the message
  // codecs below must see a bare payload.
  SpanBlock block;
  bool have_block = false;
  if ((resp->header.flags & kFrameFlagTraced) != 0) {
    Result<SpanBlock> stripped = StripSpanBlock(&resp->payload);
    if (!stripped.ok()) return stripped.status();
    block = std::move(stripped).value();
    have_block = true;
  }
  if (rpc.span_id != 0) {
    SpanRecord rpc_rec{};
    rpc_rec.name_id = kSpanNetRpc;
    rpc_rec.start_ns = rpc.t0;
    rpc_rec.duration_ns = t1 - rpc.t0;
    rpc_rec.detail = static_cast<std::uint64_t>(
        static_cast<std::uint8_t>(rpc.type));
    trace_->AddSpan(rpc.span_id, rpc.parent_span_id, rpc_rec);
    if (have_block) {
      StitchSpanBlock(slot, block, rpc.t0, t1, /*extra_flags=*/0);
      if ((resp->header.flags & kFrameFlagTraceOverflow) != 0) {
        FetchOverflowSpans(slot, rpc.t0, t1, deadline);
      }
    }
  }
  if (resp->header.type == static_cast<std::uint8_t>(MsgType::kError)) {
    BufferReader reader(resp->payload);
    Result<ErrorResponse> error = DecodeError(&reader);
    if (!error.ok()) return error.status();
    Status st = StatusFromError(*error);
    // An OK-coded error frame is a protocol violation, not a success.
    return st.ok() ? Status::Corruption("error frame carrying OK status")
                   : st;
  }
  if (resp->header.type != static_cast<std::uint8_t>(ok_type)) {
    return Status::Corruption(
        "unexpected response type " + std::to_string(resp->header.type) +
        " to request type " +
        std::to_string(static_cast<int>(static_cast<std::uint8_t>(rpc.type))));
  }
  if (response != nullptr) *response = std::move(resp->payload);
  return Status::OK();
}

void RemoteShardRouter::StitchSpanBlock(const Slot& slot,
                                        const SpanBlock& block,
                                        std::uint64_t t0, std::uint64_t t1,
                                        std::uint16_t extra_flags) {
  // Clock re-anchoring (docs/tracing.md): the two machines share no
  // monotonic epoch, but the RPC's client midpoint and the server's
  // handling midpoint name (approximately) the same instant — their
  // difference maps server timestamps onto this process's timeline,
  // symmetric-latency error bounded by half the network round trip.
  const std::int64_t offset =
      static_cast<std::int64_t>((t0 + t1) / 2) -
      static_cast<std::int64_t>(
          (block.server_recv_ns + block.server_send_ns) / 2);
  const std::uint32_t origin =
      (static_cast<std::uint32_t>(slot.index + 1) << 8) |
      static_cast<std::uint32_t>(slot.active & 0xff);
  for (const TraceSpan& span : block.spans) {
    SpanRecord rec = span.rec;
    rec.flags = static_cast<std::uint16_t>(rec.flags | kSpanFlagRemote |
                                           extra_flags);
    rec.origin = origin;
    rec.start_ns = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(rec.start_ns) + offset);
    trace_->AddSpan(span.span_id, span.parent_span_id, rec);
  }
}

void RemoteShardRouter::FetchOverflowSpans(Slot& slot, std::uint64_t t0,
                                           std::uint64_t t1,
                                           const Deadline& deadline) {
  const std::uint64_t f0 = MonotonicNowNs();
  Frame frame;
  frame.header.type = static_cast<std::uint8_t>(MsgType::kTraceFetch);
  frame.header.deadline_us = deadline.remaining_us();
  // Best-effort throughout: a failed fetch loses detail spans, never the
  // query. The stream may be desynced mid-fetch though, so any failure
  // drops the connection — the next request re-dials and replays commits
  // like any failover.
  if (!SendFrame(slot.conn, std::move(frame), deadline).ok()) {
    DropConn(slot);
    return;
  }
  Result<Frame> resp = RecvFrame(slot.conn, deadline);
  if (!resp.ok() || resp->header.type !=
                        static_cast<std::uint8_t>(MsgType::kTraceFetchOk)) {
    DropConn(slot);
    return;
  }
  BufferReader reader(resp->payload);
  Result<SpanBlock> fetched = DecodeSpanBlock(&reader);
  if (!fetched.ok()) return;
  // The parked block kept the ORIGINAL request's clock anchors, so the
  // original envelope's midpoint offset still applies.
  StitchSpanBlock(slot, *fetched, t0, t1, kSpanFlagFetched);
  SpanRecord rec{};
  rec.name_id = kSpanNetTraceFetch;
  rec.start_ns = f0;
  rec.duration_ns = MonotonicNowNs() - f0;
  rec.detail = fetched->spans.size();
  trace_->AddSpan(trace_->NextSpanId(), trace_->root_span_id(), rec);
  trace_->NoteFetch();
}

void RemoteShardRouter::AbandonReplica(Slot& slot) {
  DropConn(slot);
  if (slot.replicas.size() < 2) return;
  if (trace_ != nullptr && trace_->active()) {
    // Point span naming the replica being abandoned, so a stitched trace
    // shows WHERE the query switched replicas.
    SpanRecord rec{};
    rec.name_id = kSpanNetFailover;
    rec.flags = kSpanFlagFailover;
    rec.origin = (static_cast<std::uint32_t>(slot.index + 1) << 8) |
                 static_cast<std::uint32_t>(slot.active & 0xff);
    rec.start_ns = MonotonicNowNs();
    rec.detail = slot.index;
    trace_->AddSpan(trace_->NextSpanId(), trace_->root_span_id(), rec);
    trace_->NoteFailover();
  }
  slot.active = (slot.active + 1) % slot.replicas.size();
  GetNetMetrics().failovers->Increment();
}

Status RemoteShardRouter::CallSlot(std::size_t s, MsgType type,
                                   const BufferWriter& request,
                                   MsgType ok_type, const ReplyFn& on_reply,
                                   const Deadline& deadline,
                                   std::uint64_t parent_span_id) {
  Slot& slot = slots_[s];
  const NetMetrics& nm = GetNetMetrics();
  // RunWithRetry's counter bumps on EVERY attempt; net.rpc.retries
  // should count only the re-attempts, so count rounds ourselves.
  std::size_t rounds = 0;
  std::vector<std::uint8_t> payload;
  const auto attempt = [&]() -> Status {
    if (++rounds > 1) nm.rpc_retries->Increment();
    // One round: each replica of the slot gets one chance, starting from
    // the active one. Deterministic application errors return
    // immediately; transport failures and rejected replies advance the
    // replica cursor.
    Status last = Status::Unavailable("slot " + std::to_string(s) +
                                      ": no replica answered");
    for (std::size_t tried = 0; tried < slot.replicas.size(); ++tried) {
      Status st;
      if (!slot.hello_done) st = ConnectActiveReplica(slot, deadline);
      if (st.ok()) {
        st = DoRequest(slot, type, request, ok_type, &payload, deadline,
                       parent_span_id);
        if (st.ok() && on_reply) st = on_reply(s, &payload);
        if (st.ok()) return st;
        if (!IsFailoverTrigger(st)) return st;
      }
      last = st;
      AbandonReplica(slot);
      if (deadline.expired()) break;
    }
    return last;
  };
  Status st = RunWithRetry(options_.retry, attempt, nullptr, {}, deadline);
  if (!st.ok()) nm.rpc_errors->Increment();
  return st;
}

Status RemoteShardRouter::FanOut(MsgType type, const BufferWriter& request,
                                 MsgType ok_type, const ReplyFn& on_reply,
                                 bool fail_over) {
  const Deadline deadline = RpcDeadline();
  const bool traced = trace_ != nullptr && trace_->active();
  const std::uint64_t fanout_span = traced ? trace_->NextSpanId() : 0;
  const std::uint64_t f0 = traced ? MonotonicNowNs() : 0;
  const std::size_t n = slots_.size();
  fanout_.resize(n);

  // Every request goes on the wire before any reply is read, so the
  // servers work concurrently and the fan-out costs the slowest hop, not
  // the sum. A slot without a live connection waits for the ladder
  // below, which dials it. The ladder runs under the fan-out's deadline:
  // the RPC deadline bounds the whole query, failovers included.
  for (std::size_t s = 0; s < n; ++s) {
    FanOutSlot& f = fanout_[s];
    f.sent = slots_[s].hello_done;
    f.status = f.sent ? SendRequest(slots_[s], type, request, deadline,
                                    fanout_span, &f.rpc)
                      : Status::OK();
  }
  // Drain EVERY sent reply, whatever happened to the others: a reply
  // left unread would answer the next request on that stream.
  for (std::size_t s = 0; s < n; ++s) {
    FanOutSlot& f = fanout_[s];
    if (!f.sent || !f.status.ok()) continue;
    f.status = RecvResponse(slots_[s], f.rpc, ok_type, &f.payload, deadline);
    if (f.status.ok() && on_reply) f.status = on_reply(s, &f.payload);
  }

  // Failed slots, in slot order. A transport failure or a rejected
  // reply takes CallSlot's ladder: abandon the replica, then CallSlot
  // dials the next one, replays the commits and re-asks this slot, with
  // its retry rounds behind that. A deterministic error ends the fan-out
  // (the other slots' replies were already drained, so every stream
  // stays in sync); slots still broken behind it just drop their
  // connection.
  Status first_error;
  for (std::size_t s = 0; s < n; ++s) {
    FanOutSlot& f = fanout_[s];
    if (f.sent && f.status.ok()) continue;
    Slot& slot = slots_[s];
    if (!fail_over || !first_error.ok()) {
      DropConn(slot);
      continue;
    }
    if (f.sent) {
      if (!IsFailoverTrigger(f.status)) {
        first_error = f.status;
        continue;
      }
      AbandonReplica(slot);
    }
    first_error = CallSlot(s, type, request, ok_type, on_reply, deadline,
                           fanout_span);
  }
  if (traced) {
    SpanRecord rec{};
    rec.name_id = kSpanNetFanout;
    rec.start_ns = f0;
    rec.duration_ns = MonotonicNowNs() - f0;
    rec.detail = n;
    trace_->AddSpan(fanout_span, trace_->root_span_id(), rec);
  }
  return first_error;
}

Status RemoteShardRouter::CheckNotPoisoned() const {
  if (poisoned_.ok()) return Status::OK();
  return Status::FailedPrecondition(
      "session poisoned by a failed commit (" + poisoned_.message() +
      "); ResetSession() or Refresh() to recover");
}

Status RemoteShardRouter::FoldGains(std::span<const NodeId> nodes,
                                    double* gains) {
  // Theorem 3 splits a gain into one term per action x performed, and
  // the slots partition the actions in range order. Adding every slot's
  // terms in slot order is therefore the exact addition sequence of
  // ShardRouter::MarginalGain — which process computed a term does not
  // matter, only the order of the final additions, and that happens
  // here. A failover re-asks one slot for the same terms.
  GainTermsRequest request_msg;
  request_msg.nodes.assign(nodes.begin(), nodes.end());
  BufferWriter request;
  EncodeGainTerms(request_msg, &request);
  term_replies_.resize(slots_.size());
  const ReplyFn accept = [&](std::size_t s,
                             std::vector<std::uint8_t>* payload) -> Status {
    BufferReader reader(*payload);
    Result<GainTermsResponse> reply = DecodeGainTermsOk(&reader);
    if (!reply.ok()) return reply.status();
    if (reply->counts.size() != nodes.size()) {
      return Status::Corruption(
          "gain terms: slot " + std::to_string(s) + " returned " +
          std::to_string(reply->counts.size()) + " counts for " +
          std::to_string(nodes.size()) + " nodes");
    }
    term_replies_[s] = std::move(reply).value();
    return Status::OK();
  };
  INFLUMAX_RETURN_IF_ERROR(
      FanOut(MsgType::kGainTerms, request, MsgType::kGainTermsOk, accept,
             /*fail_over=*/true));

  term_cursor_.assign(slots_.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double acc = 0.0;
    std::uint64_t count = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      const GainTermsResponse& reply = term_replies_[s];
      const std::uint32_t c = reply.counts[i];
      const double* terms = reply.terms.data() + term_cursor_[s];
      for (std::uint32_t t = 0; t < c; ++t) acc += terms[t];
      term_cursor_[s] += c;
      count += c;
    }
    // Each slot returns one term per action x performed in its range, so
    // the slots' counts must add up to the hello's A_x. No single slot
    // is to blame when they do not, so the query fails as Corruption.
    if (count != au_[nodes[i]]) {
      return Status::Corruption(
          "gain terms: slots returned " + std::to_string(count) +
          " terms for node " + std::to_string(nodes[i]) + " with A_x = " +
          std::to_string(au_[nodes[i]]));
    }
    gains[i] = acc;
  }
  return Status::OK();
}

Result<double> RemoteShardRouter::RemoteGain(NodeId x) {
  double gain = 0.0;
  INFLUMAX_RETURN_IF_ERROR(FoldGains(std::span<const NodeId>(&x, 1), &gain));
  return gain;
}

Result<double> RemoteShardRouter::MarginalGain(NodeId x) {
  INFLUMAX_RETURN_IF_ERROR(CheckNotPoisoned());
  // The router guard, verbatim (ShardRouter::MarginalGain): seeds and
  // inactive users answer 0.0 locally, no RPC.
  if (x >= num_users_ || is_seed_[x] || au_[x] == 0) return 0.0;
  return RemoteGain(x);
}

Status RemoteShardRouter::CommitSeed(NodeId x) {
  INFLUMAX_RETURN_IF_ERROR(CheckNotPoisoned());
  if (x >= num_users_ || is_seed_[x]) return Status::OK();
  BufferWriter request;
  EncodeCommit(CommitRequest{x}, &request);
  if (Status st = FanOut(MsgType::kCommit, request, MsgType::kCommitOk,
                         nullptr, /*fail_over=*/true);
      !st.ok()) {
    // Some slots may have applied the commit, some not: their terms
    // would mix seed sets, so the session is poisoned until
    // ResetSession()/Refresh() rebuilds a consistent one. Degradation is
    // a refusal, never a partial answer.
    poisoned_ = st;
    return st;
  }
  is_seed_[x] = 1;
  committed_.push_back(x);
  return Status::OK();
}

Result<double> RemoteShardRouter::SpreadOf(std::span<const NodeId> seeds) {
  // Theorem 3 telescopes, exactly as ShardRouter::SpreadOf.
  INFLUMAX_RETURN_IF_ERROR(ResetSession());
  double total = 0.0;
  for (NodeId seed : seeds) {
    Result<double> gain = MarginalGain(seed);
    if (!gain.ok()) return gain.status();
    total += gain.value();
    INFLUMAX_RETURN_IF_ERROR(CommitSeed(seed));
  }
  return total;
}

Status RemoteShardRouter::PrefetchGains(const std::vector<NodeId>& nodes) {
  // Batches by reply size, not node count: a node costs one count plus
  // A_x terms across the slots, so a batch's replies together stay under
  // kPrefetchBatchBudget units (a single heavier node goes alone).
  std::vector<double> gains;
  std::size_t begin = 0;
  while (begin < nodes.size()) {
    std::size_t end = begin;
    std::uint64_t cost = 0;
    while (end < nodes.size()) {
      const std::uint64_t node_cost = 1 + std::uint64_t{au_[nodes[end]]};
      if (end > begin && cost + node_cost > kPrefetchBatchBudget) break;
      cost += node_cost;
      ++end;
    }
    const std::span<const NodeId> batch(nodes.data() + begin, end - begin);
    gains.resize(batch.size());
    INFLUMAX_RETURN_IF_ERROR(FoldGains(batch, gains.data()));
    for (std::size_t i = 0; i < batch.size(); ++i) {
      prefetch_gain_[batch[i]] = gains[i];
      prefetch_valid_[batch[i]] = 1;
    }
    begin = end;
  }
  return Status::OK();
}

Result<SnapshotSeedSelection> RemoteShardRouter::TopKSeeds(
    NodeId k, double spread_budget) {
  INFLUMAX_RETURN_IF_ERROR(ResetSession());

  // Prefetch the CELF initial pass: every active non-seed's gain, a batch
  // of nodes per fan-out (seeds answer 0.0 from the local guard, as in
  // ShardRouter). Each node's fold is independent, so batching changes
  // round trips, never bits.
  std::vector<NodeId> nodes;
  for (NodeId x = 0; x < num_users_; ++x) {
    if (au_[x] != 0 && !is_seed_[x]) nodes.push_back(x);
  }
  std::fill(prefetch_valid_.begin(), prefetch_valid_.end(), 0);
  INFLUMAX_RETURN_IF_ERROR(PrefetchGains(nodes));
  prefetch_commits_ = committed_.size();

  // The shared CELF driver, serial (workers = 1): the same initial pass
  // over active users, heap build order, and consumption discipline as
  // every other caller, so seeds, gains, and evaluation counts are
  // bit-identical to ShardRouter::TopKSeeds. Network errors cannot
  // propagate out of the driver's callbacks, so they stick in net_error:
  // gains degrade to 0.0 (terminating the greedy via the gain <= 0
  // break) and the error — not a partial selection — is returned.
  SnapshotSeedSelection selection;
  Status net_error;
  RunCelfTopK(
      k, spread_budget, /*num_workers=*/1, num_users_,
      [](std::size_t total, const auto& body) {
        for (std::size_t i = 0; i < total; ++i) body(std::size_t{0}, i);
      },
      [this](NodeId x) { return au_[x] != 0; },
      [&](NodeId x) -> double {
        if (!net_error.ok()) return 0.0;
        if (x >= num_users_ || is_seed_[x] || au_[x] == 0) return 0.0;
        if (prefetch_valid_[x] && committed_.size() == prefetch_commits_) {
          return prefetch_gain_[x];
        }
        Result<double> gain = RemoteGain(x);
        if (!gain.ok()) {
          net_error = gain.status();
          return 0.0;
        }
        return gain.value();
      },
      [&](NodeId x) {
        if (!net_error.ok()) return;
        if (Status st = CommitSeed(x); !st.ok()) net_error = st;
      },
      &heap_, &memo_gain_, &memo_stamp_, &batch_, &gains_, &selection);
  if (!net_error.ok()) return net_error;
  return selection;
}

Status RemoteShardRouter::ResetSession() {
  // No failover: a slot whose reset fails just drops its connection,
  // which is an equivalent reset — the reconnect replays the (now
  // empty) commit list onto a fresh server session.
  BufferWriter empty;
  (void)FanOut(MsgType::kReset, empty, MsgType::kResetOk, nullptr,
               /*fail_over=*/false);
  committed_.clear();
  is_seed_ = is_frozen_;
  poisoned_ = Status::OK();
  return Status::OK();
}

Result<bool> RemoteShardRouter::Refresh() {
  const std::uint64_t before = generation_;
  INFLUMAX_RETURN_IF_ERROR(ConnectAll(0));
  return generation_ != before;
}

std::vector<ReplicaHealth> RemoteShardRouter::ProbeReplicas() {
  std::vector<ReplicaHealth> out;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    for (std::size_t r = 0; r < slots_[s].replicas.size(); ++r) {
      ReplicaHealth health;
      health.slot = s;
      health.replica = r;
      // A fresh connection per probe: the health of a replica is "can a
      // NEW client use it", not "is my cached socket still warm".
      const std::uint64_t budget_ms =
          options_.rpc_deadline_ms != 0 ? options_.rpc_deadline_ms
          : options_.connect_timeout_ms != 0 ? options_.connect_timeout_ms
                                             : 2000;
      const Deadline deadline = Deadline::AfterMs(budget_ms);
      const RemoteEndpoint& ep = slots_[s].replicas[r];
      Result<TcpConn> conn = TcpConn::Connect(ep.host, ep.port, deadline);
      if (conn.ok()) {
        Frame frame;
        frame.header.type = static_cast<std::uint8_t>(MsgType::kPing);
        frame.header.deadline_us = deadline.remaining_us();
        if (SendFrame(conn.value(), std::move(frame), deadline).ok()) {
          Result<Frame> resp = RecvFrame(conn.value(), deadline);
          if (resp.ok() &&
              resp->header.type == static_cast<std::uint8_t>(MsgType::kPong)) {
            BufferReader reader(resp->payload);
            Result<PongResponse> pong = DecodePong(&reader);
            if (pong.ok()) {
              health.healthy = true;
              health.generation = pong->generation;
              health.sessions_active = pong->sessions_active;
              health.metrics_port = pong->metrics_port;
            }
          }
        }
      }
      out.push_back(health);
    }
  }
  return out;
}

}  // namespace influmax
