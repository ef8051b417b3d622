#include "net/shard_server.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "obs/net_metrics.h"
#include "obs/prom_text.h"
#include "serve/query_engine.h"

namespace influmax {

namespace {

/// Outcome of a failpoint site whose error effect means "the process
/// died here": no error frame, just a dropped connection.
enum class SiteOutcome { kContinue, kDropConn };

SiteOutcome EvalDropSite(const char* site) {
#ifdef INFLUMAX_FAILPOINTS
  if (auto hit = failpoint_internal::CheckSite(site)) {
    Status st = failpoint_internal::HitEffect(site, *hit);
    if (!st.ok()) return SiteOutcome::kDropConn;
  }
#else
  (void)site;
#endif
  return SiteOutcome::kContinue;
}

/// The generation and action range a server advertises: those of the
/// shards it opened, read from the manifest.
void SetServedRange(const ShardedSnapshot& shards, PongResponse* pong) {
  pong->generation = shards.manifest.generation;
  pong->action_begin = shards.manifest.range_begin[shards.first_shard];
  pong->action_end = shards.manifest.range_begin[shards.end_shard()];
}

}  // namespace

/// One accepted connection: the socket (close/abort serialized by mu —
/// the handler closes on exit, Stop/Kill aborts from outside), its
/// handler thread, and whether it holds one of the bounded sessions.
struct ShardServer::Conn {
  TcpConn sock;
  std::thread thread;
  std::mutex mu;
  std::atomic<bool> done{false};
};

Result<std::unique_ptr<ShardServer>> ShardServer::Start(
    const ShardServerOptions& options) {
  // The manager opens, validates and maps only the served shard; a
  // generation without it is refused (FailedPrecondition), at start-up
  // and on every refresh.
  const ShardRange range =
      options.shard < 0
          ? ShardRange::Whole()
          : ShardRange::One(static_cast<std::size_t>(options.shard));
  auto manager_or = GenerationManager::Open(options.dir, options.max_sessions,
                                            options.recover, range);
  INFLUMAX_RETURN_IF_ERROR(manager_or.status());

  std::unique_ptr<ShardServer> server(new ShardServer());
  server->options_ = options;
  server->manager_ = std::move(manager_or).value();

  {
    // Seed the ping state, and derive the served shards' quotient pools
    // now, at start-up, rather than in the first client's hello.
    GenerationManager::Session probe(*server->manager_);
    const ShardedSnapshot& shards = probe.shards();
    SetServedRange(shards, &server->pong_state_);
    for (const CreditSnapshotView& view : shards.views) view.fwd_quotient();
  }

  auto listener_or = TcpListener::Bind(options.port);
  INFLUMAX_RETURN_IF_ERROR(listener_or.status());
  server->listener_ = std::move(listener_or).value();
  server->port_ = server->listener_.port();

  if (options.metrics_port >= 0) {
    auto metrics_or = TcpListener::Bind(options.metrics_port);
    INFLUMAX_RETURN_IF_ERROR(metrics_or.status());
    server->metrics_listener_ = std::move(metrics_or).value();
    server->metrics_port_ = server->metrics_listener_.port();
    // Advertise the bound port in every pong — the discovery hook fleet
    // metrics federation scrapes by (docs/observability.md).
    server->pong_state_.metrics_port = server->metrics_port_;
    server->metrics_thread_ =
        std::thread([s = server.get()] { s->MetricsLoop(); });
  }

  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  listener_.Abort();
  metrics_listener_.Abort();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      std::lock_guard<std::mutex> conn_lock(conn->mu);
      conn->sock.Abort();
    }
  }
  // conns_ is stable now: the accept loop is joined, handlers only mark
  // done. Join and drop them all.
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
  listener_.Close();
  metrics_listener_.Close();
}

std::uint64_t ShardServer::current_generation() {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return manager_->current_generation();
}

Result<bool> ShardServer::Refresh(const Deadline& deadline) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto changed = manager_->RefreshFromDisk(deadline);
  INFLUMAX_RETURN_IF_ERROR(changed.status());
  if (*changed) {
    GenerationManager::Session probe(*manager_);
    SetServedRange(probe.shards(), &pong_state_);
  }
  return changed;
}

std::size_t ShardServer::sessions_active() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return sessions_active_;
}

void ShardServer::AcceptLoop() {
  for (;;) {
    auto conn_or = listener_.Accept(Deadline::Infinite());
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_) return;
      // Reap finished handlers so a long-lived server's list stays
      // proportional to LIVE connections, not connections ever.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      if (conn_or.ok()) {
        auto conn = std::make_unique<Conn>();
        conn->sock = std::move(conn_or).value();
        Conn* raw = conn.get();
        conn->thread = std::thread([this, raw] { HandleConn(raw); });
        conns_.push_back(std::move(conn));
        continue;
      }
    }
    // Accept failed without a stop request: the listener is gone
    // (aborted externally) or the fd broke — either way, stop serving.
    if (!conn_or.ok()) return;
  }
}

void ShardServer::HandleConn(Conn* conn) {
  const NetMetrics& net = GetNetMetrics();
  net.server_connections->Add(1);

  // Declaration order is destruction order in reverse: engines must die
  // before the Session whose pinned generation they view.
  std::optional<GenerationManager::Session> session;
  std::vector<SnapshotQueryEngine> engines;
  bool holds_session_slot = false;
  std::size_t shard_begin = 0;
  std::size_t shard_end = 0;
  NodeId num_users = 0;
  std::uint32_t session_seeds = 0;
  GainPartialsResponse partials_reply;  // reused: keeps its capacity

  // Tracing state (docs/tracing.md). reply_* is per-request; pending_
  // trace survives across requests until the client's kTraceFetch.
  TraceContext tctx;
  bool reply_traced = false;
  SpanBlock reply_block;
  SpanBlock pending_trace;
  std::uint64_t request_span_id = 0;
  std::uint64_t request_t0 = 0;
  std::uint64_t trace_seq = 0;

  // Server-minted span ids: bit 63 set (client ids are small sequential
  // integers — disjoint by construction) over an FNV mix of the trace
  // context and a per-connection sequence, so two hops of one trace
  // cannot collide.
  const auto server_span_id = [&]() -> std::uint64_t {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    };
    mix(tctx.trace_id);
    mix(tctx.parent_span_id);
    mix(++trace_seq);
    return h | (1ull << 63);
  };
  // Closes a child span started at t0 under the current request span.
  const auto trace_child = [&](std::uint16_t name_id, std::uint64_t t0,
                               std::uint64_t detail) {
    if (!reply_traced) return;
    reply_block.spans.push_back(
        TraceSpan{server_span_id(), request_span_id,
                  SpanRecord{name_id, 0, 0, t0, MonotonicNowNs() - t0,
                             detail}});
  };

  const auto send_response = [&](MsgType type, BufferWriter payload,
                                 const Deadline& deadline) -> bool {
    Frame out;
    out.header.type = static_cast<std::uint8_t>(type);
    out.header.generation =
        session.has_value() ? session->generation() : std::uint64_t{0};
    out.header.deadline_us = deadline.remaining_us();
    out.payload = payload.TakeBuffer();
    if (reply_traced) {
      // server.send marks response serialization: the block ships inside
      // the frame it describes, so the socket write itself can never be
      // inside its own span — it is a point marker, not an interval.
      const std::uint64_t now = MonotonicNowNs();
      reply_block.spans.push_back(
          TraceSpan{server_span_id(), request_span_id,
                    SpanRecord{kSpanServerSend, 0, 0, now, 0,
                               out.payload.size()}});
      // The request span itself closes at block build.
      reply_block.spans.push_back(
          TraceSpan{request_span_id, tctx.parent_span_id,
                    SpanRecord{kSpanServerRequest, 0, 0, request_t0,
                               now - request_t0, out.header.type}});
      reply_block.server_send_ns = now;
      out.header.flags |= kFrameFlagTraced;
      if (reply_block.spans.size() > options_.trace_piggyback_spans) {
        // Over the piggyback cap: ship only the clock anchors, park the
        // spans for the client's kTraceFetch.
        out.header.flags |= kFrameFlagTraceOverflow;
        SpanBlock anchors;
        anchors.server_recv_ns = reply_block.server_recv_ns;
        anchors.server_send_ns = reply_block.server_send_ns;
        pending_trace = std::move(reply_block);
        PrependSpanBlock(anchors, &out.payload);
      } else {
        PrependSpanBlock(reply_block, &out.payload);
      }
      reply_block = SpanBlock{};
    }
    return SendFrame(conn->sock, std::move(out), deadline, "net.server.send")
        .ok();
  };
  const auto send_error = [&](const Status& status,
                              const Deadline& deadline) -> bool {
    if constexpr (kObsEnabled) net.server_errors->Increment();
    BufferWriter payload;
    EncodeError(ErrorFromStatus(status), &payload);
    return send_response(MsgType::kError, std::move(payload), deadline);
  };

  for (;;) {
    auto frame_or = RecvFrame(conn->sock, Deadline::Infinite());
    if (!frame_or.ok()) break;  // peer gone, torn stream, or aborted
    Frame& frame = *frame_or;
    const std::uint64_t handle_t0 = kObsEnabled ? MonotonicNowNs() : 0;
    if constexpr (kObsEnabled) net.server_requests->Increment();

    // v2 trace context: stripped UNCONDITIONALLY — an OBS_OFF build must
    // still leave the payload decodable — but spans are only recorded
    // when observability is compiled in.
    reply_traced = false;
    reply_block = SpanBlock{};
    if (frame.header.flags & kFrameFlagTraced) {
      auto ctx_or = StripTraceContext(&frame.payload);
      if (!ctx_or.ok()) {
        if (!send_error(ctx_or.status(), Deadline::AfterMs(1000))) break;
        continue;
      }
      if constexpr (kObsEnabled) {
        tctx = *ctx_or;
        reply_traced = true;
        request_t0 = handle_t0;
        request_span_id = server_span_id();
        reply_block.server_recv_ns = handle_t0;
      }
    }

    // The "server died before answering" site: error drops the
    // connection with no response; delay injects handling latency (what
    // a client-side deadline then trips over).
    if (EvalDropSite("net.server.request") == SiteOutcome::kDropConn) break;

    const Deadline deadline = Deadline::AfterUs(frame.header.deadline_us);
    if (deadline.expired()) {
      if constexpr (kObsEnabled) net.deadline_exceeded->Increment();
      if (!send_error(Status::Unavailable("deadline expired before handling"),
                      Deadline::AfterMs(1000))) {
        break;
      }
      continue;
    }

    if (frame.header.reserved != 0) {
      if (!send_error(Status::InvalidArgument(
                          "header byte 6 is reserved and must be zero, got " +
                          std::to_string(frame.header.reserved)),
                      deadline)) {
        break;
      }
      continue;
    }

    const auto type = static_cast<MsgType>(frame.header.type);

    // Generation pin: every post-hello request must name the pinned
    // generation — a client that reconnected around a swap finds out
    // here, not from silently different bits. (kTraceFetch stays
    // outside this list: retrieving parked spans needs no session.)
    if (type == MsgType::kGainPartials || type == MsgType::kCommit ||
        type == MsgType::kReset) {
      const std::uint64_t pin_t0 = reply_traced ? MonotonicNowNs() : 0;
      if (!session.has_value()) {
        if (!send_error(Status::FailedPrecondition("no session: hello first"),
                        deadline)) {
          break;
        }
        continue;
      }
      if (frame.header.generation != session->generation()) {
        if (!send_error(
                Status::FailedPrecondition(
                    "generation pin " + std::to_string(frame.header.generation) +
                    " != session generation " +
                    std::to_string(session->generation())),
                deadline)) {
          break;
        }
        continue;
      }
      trace_child(kSpanServerPin, pin_t0, frame.header.generation);
    }

    BufferReader reader(frame.payload);
    bool sent = true;
    switch (type) {
      case MsgType::kPing: {
        PongResponse pong;
        {
          std::lock_guard<std::mutex> lock(publish_mu_);
          pong = pong_state_;
        }
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          pong.sessions_active = static_cast<std::uint32_t>(sessions_active_);
        }
        BufferWriter payload;
        EncodePong(pong, &payload);
        sent = send_response(MsgType::kPong, std::move(payload), deadline);
        break;
      }

      case MsgType::kHello: {
        auto hello_or = DecodeHello(&reader);
        if (!hello_or.ok()) {
          sent = send_error(hello_or.status(), deadline);
          break;
        }
        if (session.has_value()) {
          sent = send_error(
              Status::InvalidArgument("duplicate hello on this connection"),
              deadline);
          break;
        }
        {
          std::lock_guard<std::mutex> lock(conns_mu_);
          if (sessions_active_ >= options_.max_sessions) {
            if constexpr (kObsEnabled) net.server_rejected->Increment();
            sent = send_error(
                Status::Unavailable(
                    "server at session capacity (" +
                    std::to_string(options_.max_sessions) + ")"),
                deadline);
            break;
          }
          ++sessions_active_;
          holds_session_slot = true;
        }
        session.emplace(*manager_);
        if (hello_or->generation_pin != 0 &&
            session->generation() != hello_or->generation_pin) {
          const std::uint64_t have = session->generation();
          session.reset();
          {
            std::lock_guard<std::mutex> lock(conns_mu_);
            --sessions_active_;
            holds_session_slot = false;
          }
          sent = send_error(
              Status::FailedPrecondition(
                  "serves generation " + std::to_string(have) +
                  ", client pinned " +
                  std::to_string(hello_or->generation_pin)),
              deadline);
          break;
        }

        // Everything below comes from the pinned generation's opened
        // shards: the manager opened exactly the served ones.
        const ShardedSnapshot& shards = session->shards();
        const ShardManifest& manifest = shards.manifest;
        shard_begin = shards.first_shard;
        shard_end = shards.end_shard();
        num_users = manifest.num_users;
        engines.clear();
        engines.reserve(shard_end - shard_begin);
        for (const CreditSnapshotView& view : shards.views) {
          // The same construction ShardRouter performs — the view
          // divides by the global A_u — so every partial matches the
          // in-process router bit for bit.
          engines.emplace_back(view);
        }
        session_seeds = 0;

        HelloResponse resp;
        resp.generation = session->generation();
        resp.num_users = manifest.num_users;
        resp.num_actions = manifest.num_actions;
        resp.action_begin = manifest.range_begin[shard_begin];
        resp.action_end = manifest.range_begin[shard_end];
        resp.graph_fingerprint = manifest.graph_fingerprint;
        resp.log_fingerprint = manifest.log_fingerprint;
        resp.truncation_threshold = manifest.truncation_threshold;
        resp.au = manifest.au;
        const auto frozen = shards.view(shard_begin).seeds();
        resp.frozen_seeds.assign(frozen.begin(), frozen.end());
        BufferWriter payload;
        EncodeHelloOk(resp, &payload);
        sent = send_response(MsgType::kHelloOk, std::move(payload), deadline);
        break;
      }

      case MsgType::kGainPartials: {
        const std::uint64_t decode_t0 = reply_traced ? MonotonicNowNs() : 0;
        auto request_or = DecodeGainPartials(&reader);
        if (!request_or.ok()) {
          sent = send_error(request_or.status(), deadline);
          break;
        }
        trace_child(kSpanServerDecode, decode_t0, frame.payload.size());
        const std::vector<NodeId>& nodes = request_or->nodes;
        // Validate the node count and every node BEFORE any gain work,
        // so a refused request costs no folding.
        Status invalid;
        if (nodes.size() > kMaxGainNodesPerRequest) {
          invalid = Status::InvalidArgument(
              "gain partials request of " + std::to_string(nodes.size()) +
              " nodes exceeds the cap of " +
              std::to_string(kMaxGainNodesPerRequest));
        }
        for (std::size_t i = 0; invalid.ok() && i < nodes.size(); ++i) {
          if (nodes[i] >= num_users) {
            invalid = Status::InvalidArgument(
                "node " + std::to_string(nodes[i]) + " >= num_users " +
                std::to_string(num_users));
          }
        }
        if (!invalid.ok()) {
          sent = send_error(invalid, deadline);
          break;
        }
        partials_reply.partials.assign(nodes.size(), 0);
        bool dropped = false;
        bool too_late = false;
        // Per-engine fold attribution for traced requests: one span per
        // engine covering its slice of the whole request (per-node spans
        // would blow the span cap on a CELF prefetch batch).
        std::vector<std::uint64_t> fold_start(
            reply_traced ? engines.size() : 0, 0);
        std::vector<std::uint64_t> fold_ns(reply_traced ? engines.size() : 0,
                                           0);
        for (std::size_t i = 0; i < nodes.size() && !dropped; ++i) {
          // Server-side deadline enforcement inside a long prefetch
          // batch: a late request stops and reports, it does not burn
          // the budget to the end.
          if ((i & 255u) == 255u && deadline.expired()) {
            too_late = true;
            break;
          }
          for (std::size_t e = 0; e < engines.size(); ++e) {
            // The mid-fold crash site: a server dying between two
            // shards' partials.
            if (EvalDropSite("net.server.fold_step") ==
                SiteOutcome::kDropConn) {
              dropped = true;
              break;
            }
            const std::uint64_t fold_t0 = reply_traced ? MonotonicNowNs() : 0;
            partials_reply.partials[i] += engines[e].PartialGain(nodes[i]);
            if (reply_traced) {
              if (fold_start[e] == 0) fold_start[e] = fold_t0;
              fold_ns[e] += MonotonicNowNs() - fold_t0;
            }
          }
        }
        if (dropped) {
          sent = false;
          break;
        }
        if (reply_traced) {
          for (std::size_t e = 0; e < engines.size(); ++e) {
            if (fold_start[e] == 0) continue;
            reply_block.spans.push_back(
                TraceSpan{server_span_id(), request_span_id,
                          SpanRecord{kSpanServerFold, 0, 0, fold_start[e],
                                     fold_ns[e], shard_begin + e}});
          }
        }
        if (too_late) {
          if constexpr (kObsEnabled) net.deadline_exceeded->Increment();
          sent = send_error(Status::Unavailable("deadline expired mid-batch"),
                            Deadline::AfterMs(1000));
          break;
        }
        BufferWriter payload;
        EncodeGainPartialsOk(partials_reply, &payload);
        sent = send_response(MsgType::kGainPartialsOk, std::move(payload),
                             deadline);
        break;
      }

      case MsgType::kCommit: {
        const std::uint64_t decode_t0 = reply_traced ? MonotonicNowNs() : 0;
        auto commit_or = DecodeCommit(&reader);
        if (!commit_or.ok()) {
          sent = send_error(commit_or.status(), deadline);
          break;
        }
        trace_child(kSpanServerDecode, decode_t0, frame.payload.size());
        if (commit_or->node >= num_users) {
          sent = send_error(
              Status::InvalidArgument("node " + std::to_string(commit_or->node) +
                                      " >= num_users " +
                                      std::to_string(num_users)),
              deadline);
          break;
        }
        for (SnapshotQueryEngine& engine : engines) {
          engine.CommitSeed(commit_or->node);
        }
        ++session_seeds;
        BufferWriter payload;
        EncodeCommitOk(CommitResponse{session_seeds}, &payload);
        sent = send_response(MsgType::kCommitOk, std::move(payload), deadline);
        break;
      }

      case MsgType::kReset: {
        for (SnapshotQueryEngine& engine : engines) {
          engine.ResetSession();
        }
        session_seeds = 0;
        sent = send_response(MsgType::kResetOk, BufferWriter(), deadline);
        break;
      }

      case MsgType::kTraceFetch: {
        // Hands over the span block a kFrameFlagTraceOverflow response
        // parked. The fetch round-trip is bookkeeping, not query work —
        // it is never traced itself.
        reply_traced = false;
        BufferWriter payload;
        EncodeSpanBlock(pending_trace, &payload);
        pending_trace = SpanBlock{};
        sent =
            send_response(MsgType::kTraceFetchOk, std::move(payload), deadline);
        break;
      }

      default: {
        // Includes the retired chained-fold ids 5-8 and the retired
        // per-action term ids 15-16.
        const std::uint8_t t = frame.header.type;
        const bool retired = (t >= 5 && t <= 8) || t == 15 || t == 16;
        sent = send_error(
            Status::InvalidArgument(
                std::string(retired ? "retired" : "unexpected") +
                " message type " + std::to_string(frame.header.type)),
            deadline);
        break;
      }
    }
    if constexpr (kObsEnabled) {
      net.server_latency->Record(MonotonicNowNs() - handle_t0);
    }
    if (!sent) break;
  }

  // Unpin before giving the slot back: a client admitted into the freed
  // slot must find a free reader session in the manager, not this one.
  engines.clear();
  session.reset();
  if (holds_session_slot) {
    std::lock_guard<std::mutex> lock(conns_mu_);
    --sessions_active_;
  }
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->sock.Close();
  }
  net.server_connections->Add(-1);
  conn->done.store(true);
}

void ShardServer::MetricsLoop() {
  for (;;) {
    auto conn_or = metrics_listener_.Accept(Deadline::Infinite());
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_) return;
    }
    if (!conn_or.ok()) return;
    // Serial handling: /metrics scrapes are rare and small, and a
    // single-threaded loop cannot be wedged open by a slow client
    // thanks to the per-request deadline below.
    HandleMetricsConn(std::move(conn_or).value());
  }
}

void ShardServer::HandleMetricsConn(TcpConn conn) {
  const Deadline deadline = Deadline::AfterMs(2000);
  std::string request;
  char buf[1024];
  while (request.size() < 4096 &&
         request.find("\r\n\r\n") == std::string::npos) {
    auto n = conn.RecvSome(buf, sizeof(buf), deadline);
    if (!n.ok() || *n == 0) break;
    request.append(buf, *n);
  }

  std::string path = "/";
  if (request.rfind("GET ", 0) == 0) {
    const std::size_t end = request.find(' ', 4);
    if (end != std::string::npos) path = request.substr(4, end - 4);
  }

  std::string status_line = "HTTP/1.0 200 OK";
  std::string body;
  if (path == "/metrics") {
    body = PrometheusText(MetricsRegistry::Global().Scrape());
  } else if (path == "/healthz") {
    std::lock_guard<std::mutex> lock(publish_mu_);
    body = "ok generation=" + std::to_string(pong_state_.generation) + "\n";
  } else {
    status_line = "HTTP/1.0 404 Not Found";
    body = "not found\n";
  }
  const std::string response = status_line +
                               "\r\nContent-Type: text/plain; version=0.0.4" +
                               "\r\nContent-Length: " +
                               std::to_string(body.size()) +
                               "\r\nConnection: close\r\n\r\n" + body;
  (void)conn.SendAll(response.data(), response.size(), deadline);
}

}  // namespace influmax
