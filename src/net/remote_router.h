#ifndef INFLUMAX_NET_REMOTE_ROUTER_H_
#define INFLUMAX_NET_REMOTE_ROUTER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "common/timer.h"
#include "common/types.h"
#include "core/celf.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "serve/query_engine.h"

namespace influmax {

/// One replica of one range slot.
struct RemoteEndpoint {
  std::string host;
  int port = 0;
};

/// Parses "host:port[|host:port...][,host:port[|...]]...": commas
/// separate range slots IN RANGE ORDER, '|' separates replicas of one
/// slot (tried in order, first healthy wins).
Result<std::vector<std::vector<RemoteEndpoint>>> ParseEndpointSpec(
    const std::string& spec);

struct RemoteRouterOptions {
  /// replica_sets[i] = the replicas serving range slot i; slot order
  /// must match ascending action-range order (validated at Connect from
  /// the hellos' action_begin/end).
  std::vector<std::vector<RemoteEndpoint>> replica_sets;
  /// 0 pins whatever generation the servers currently serve (they must
  /// agree); nonzero demands exactly that generation.
  std::uint64_t generation_pin = 0;
  GainKernelMode kernel_mode = GainKernelMode::kExact;
  /// Per-RPC deadline; 0 = none. Propagated in every frame header and
  /// enforced server-side too.
  std::uint64_t rpc_deadline_ms = 0;
  std::uint64_t connect_timeout_ms = 2000;
  /// Governs reconnect/failover rounds: one "attempt" tries every
  /// replica of the slot once; backoff (deterministic jitter,
  /// deadline-aware) separates rounds.
  RetryPolicy retry;
};

/// Per-replica health probe result (ProbeReplicas).
struct ReplicaHealth {
  std::size_t slot = 0;
  std::size_t replica = 0;
  bool healthy = false;
  std::uint64_t generation = 0;
  std::uint32_t sessions_active = 0;
  /// The replica's HTTP /metrics port from its pong (wire v2); -1 when
  /// the replica runs without a metrics listener or speaks wire v1.
  /// Feeds fleet metrics federation (net/fed_metrics.h).
  int metrics_port = -1;
};

/// ShardRouter over sockets (docs/networking.md): each range slot is a
/// replica set of shard_server processes. A gain, a commit, or a reset is
/// one fan-out: the request goes to every slot first, then every reply
/// is read, so a query costs the slowest hop rather than the sum of the
/// hops. For a gain each slot returns its per-action terms
/// `mg_a(x) * (1 - SC(x, a))`, and the client adds them with `acc += t`
/// in slot order — the addition sequence of ShardRouter::MarginalGain.
/// MarginalGain / SpreadOf / CommitSeed / TopKSeeds therefore return
/// bit-identical seeds, gains, and evaluation counts (docs/sharding.md):
/// bit identity depends on the order of the final additions, not on
/// which process computed each term.
///
/// TopKSeeds runs the engine's own RunCelfTopK verbatim (workers = 1,
/// serial loop) with the initial gain pass answered from batched
/// fan-outs — each node's terms are independent, so batching changes
/// round trips, never bits. The consumption loop's stale re-evaluations
/// go over the wire one fan-out each.
///
/// Robustness contract:
///  * Transport failures (timeout, torn/corrupt frame, connection loss,
///    a replica at capacity) and rejected replies (counts that do not
///    match the request) fail over to the next replica of that slot:
///    the connection is re-dialed under RetryPolicy, the session
///    re-pinned to the SAME generation, committed seeds replayed in
///    order, and that slot alone re-asked. The other slots' replies are
///    drained first, so no stream desyncs; the re-asked terms are the
///    same terms, so FP order is preserved across the failover.
///  * Deterministic errors (InvalidArgument, a generation-pin mismatch)
///    surface to the caller unchanged.
///  * Slots whose term counts for a node do not add up to the hello's
///    A_x fail the query with Corruption (no single slot is to blame).
///  * A slot with no live replica fails the query with Unavailable
///    after one bounded retry schedule — fast degradation, never a
///    partial answer: queries return values only when every slot
///    answered.
///  * A failed CommitSeed poisons the session (replicas may disagree on
///    the seed set); every later query returns FailedPrecondition until
///    ResetSession()/Refresh() rebuilds a consistent state.
///
/// One thread does all of it, without poll(): it writes to every socket,
/// then reads from every socket. Concurrency contract: one router per
/// thread, like ShardRouter.
class RemoteShardRouter {
 public:
  /// Dials every slot, validates the topology (one generation, ranges
  /// contiguous ascending and covering, matching fingerprints), and
  /// pulls the global A_u + frozen seeds from slot 0's hello.
  static Result<std::unique_ptr<RemoteShardRouter>> Connect(
      const RemoteRouterOptions& options);

  ~RemoteShardRouter();

  RemoteShardRouter(const RemoteShardRouter&) = delete;
  RemoteShardRouter& operator=(const RemoteShardRouter&) = delete;

  /// The fanned-out gain; bit-identical to ShardRouter::MarginalGain.
  Result<double> MarginalGain(NodeId x);

  /// Commits x on every slot (every replica set) in one fan-out.
  Status CommitSeed(NodeId x);

  /// sigma_cd of `seeds` committed in order over a fresh session.
  Result<double> SpreadOf(std::span<const NodeId> seeds);

  /// CELF greedy top-k from a fresh session; bit-identical to
  /// ShardRouter::TopKSeeds (which is bit-identical to the monolithic
  /// engine).
  Result<SnapshotSeedSelection> TopKSeeds(
      NodeId k,
      double spread_budget = std::numeric_limits<double>::infinity());

  /// Fresh session on every slot. Always clears local state; a slot
  /// whose reset RPC fails just drops its connection — the reconnect
  /// replays an empty commit list, which IS a fresh session.
  Status ResetSession();

  /// Re-pins the router to whatever generation the servers now serve
  /// (drops the session, like GenerationManager::Session::Refresh).
  /// True when the generation changed.
  Result<bool> Refresh();

  /// Pings every replica of every slot (no session) within the RPC
  /// deadline each.
  std::vector<ReplicaHealth> ProbeReplicas();

  std::uint64_t generation() const { return generation_; }
  NodeId num_users() const { return num_users_; }
  ActionId num_actions() const { return num_actions_; }
  std::size_t num_slots() const { return slots_.size(); }
  std::span<const NodeId> session_seeds() const { return committed_; }

  void set_kernel_mode(GainKernelMode mode) { kernel_mode_ = mode; }
  GainKernelMode kernel_mode() const { return kernel_mode_; }

  /// Attaches a trace collector (docs/tracing.md). While the collector
  /// has an active trace, every RPC carries the trace context in its
  /// frame, records a client-side net.rpc span, and stitches the
  /// server's returned span block under that span — remote timestamps
  /// re-anchored to this process's clock via the RPC midpoint. nullptr
  /// detaches; the router never owns the collector.
  void set_trace_collector(TraceCollector* collector) { trace_ = collector; }

 private:
  struct Slot {
    std::vector<RemoteEndpoint> replicas;
    std::size_t index = 0;   ///< position in slots_ (origin stamping)
    std::size_t active = 0;  ///< index of the replica currently used
    TcpConn conn;
    bool hello_done = false;
    bool ever_connected = false;  ///< gates the reconnects counter
    bool range_known = false;     ///< topology validated once
    ActionId action_begin = 0;
    ActionId action_end = 0;
    HelloResponse hello;  ///< last accepted hello from this slot
  };

  /// An RPC whose request is on the wire and whose reply is unread.
  struct PendingRpc {
    MsgType type = MsgType::kError;
    std::uint64_t t0 = 0;
    std::uint64_t span_id = 0;  ///< net.rpc span id; 0 = untraced
    std::uint64_t parent_span_id = 0;
  };

  /// One slot's state within a fan-out (FanOut's reused scratch).
  struct FanOutSlot {
    bool sent = false;
    Status status;
    PendingRpc rpc;
    std::vector<std::uint8_t> payload;
  };

  /// Accepts one slot's OK reply payload. A non-OK status rejects it;
  /// Corruption means "this replica is suspect" and fails over.
  using ReplyFn =
      std::function<Status(std::size_t slot, std::vector<std::uint8_t>*)>;

  RemoteShardRouter() = default;

  Deadline RpcDeadline() const;

  /// (Re)connects every slot with `pin` (0 = adopt slot 0's current
  /// generation) and validates the topology; Connect and Refresh share
  /// it. Clears the session.
  Status ConnectAll(std::uint64_t pin);

  /// Sends `request` to slot `s` (dialing/re-helloing as needed) and
  /// hands a response of `ok_type` to `on_reply` (nullptr = discard).
  /// Implements the whole robustness ladder: replica cycling,
  /// RetryPolicy rounds, commit replay, fast Unavailable when nothing is
  /// live — all under `deadline`. `parent_span_id` parents the net.rpc
  /// spans (0 = trace root).
  Status CallSlot(std::size_t s, MsgType type, const BufferWriter& request,
                  MsgType ok_type, const ReplyFn& on_reply,
                  const Deadline& deadline,
                  std::uint64_t parent_span_id = 0);

  /// Sends `request` to every slot, then reads every reply in slot order
  /// and hands each to `on_reply`. With `fail_over`, a slot that failed
  /// in transport or whose reply was rejected goes through CallSlot's
  /// ladder; the first error in slot order is returned. Without it (the
  /// reset), a failed slot just drops its connection and the result is
  /// always OK. Records one net.fanout span over the whole fan-out.
  Status FanOut(MsgType type, const BufferWriter& request, MsgType ok_type,
                const ReplyFn& on_reply, bool fail_over);

  /// One send+recv on an established connection: SendRequest, then
  /// RecvResponse. Transient-network / Corruption statuses mean "this
  /// replica is suspect" (CallSlot fails over on them); decoded error
  /// frames surface as-is.
  Status DoRequest(Slot& slot, MsgType type, const BufferWriter& request,
                   MsgType ok_type, std::vector<std::uint8_t>* response,
                   const Deadline& deadline,
                   std::uint64_t parent_span_id = 0);

  /// The send half: frames `request` (with the trace context when a
  /// trace is active) and writes it to the slot's socket.
  Status SendRequest(Slot& slot, MsgType type, const BufferWriter& request,
                     const Deadline& deadline, std::uint64_t parent_span_id,
                     PendingRpc* rpc);

  /// The receive half: reads the reply to `rpc`, records its net.rpc
  /// span and stitches the server's spans, and decodes error frames.
  Status RecvResponse(Slot& slot, const PendingRpc& rpc, MsgType ok_type,
                      std::vector<std::uint8_t>* response,
                      const Deadline& deadline);

  /// Drops the slot's connection and, when it has another replica,
  /// advances to it: bumps net.failovers and records a net.failover span.
  void AbandonReplica(Slot& slot);

  /// Dials slot.replicas[slot.active], hellos with the pinned
  /// generation, replays committed seeds. On success the slot is ready
  /// for requests.
  Status ConnectActiveReplica(Slot& slot, const Deadline& deadline);

  void DropConn(Slot& slot);

  /// gains[i] = the gain of nodes[i] from one kGainTerms fan-out, folded
  /// in slot order. No seed/range guards (callers own them, like
  /// AccumulateGainTerms); every node must have A_x > 0.
  Status FoldGains(std::span<const NodeId> nodes, double* gains);

  /// FoldGains for one node.
  Result<double> RemoteGain(NodeId x);

  /// FoldGains over `nodes` (already filtered to active non-seeds), in
  /// batches bounded by reply size, into prefetch_gain_/prefetch_valid_.
  Status PrefetchGains(const std::vector<NodeId>& nodes);

  Status CheckNotPoisoned() const;

  /// Stitches a response's span block into the active trace: remote
  /// start times shifted by the midpoint clock offset, origins stamped
  /// with the slot/replica the block came from, kSpanFlagRemote set.
  void StitchSpanBlock(const Slot& slot, const SpanBlock& block,
                       std::uint64_t t0, std::uint64_t t1,
                       std::uint16_t extra_flags);

  /// Issues kTraceFetch on the slot's connection to pull a parked
  /// oversized span set (kFrameFlagTraceOverflow). Best-effort: a
  /// failed fetch loses detail spans, never the query.
  void FetchOverflowSpans(Slot& slot, std::uint64_t t0, std::uint64_t t1,
                          const Deadline& deadline);

  RemoteRouterOptions options_;
  std::vector<Slot> slots_;
  std::uint64_t generation_ = 0;
  NodeId num_users_ = 0;
  ActionId num_actions_ = 0;
  std::uint64_t graph_fingerprint_ = 0;
  std::uint64_t log_fingerprint_ = 0;
  std::vector<std::uint32_t> au_;
  GainKernelMode kernel_mode_ = GainKernelMode::kExact;
  TraceCollector* trace_ = nullptr;  ///< not owned; may be nullptr

  std::vector<std::uint8_t> is_seed_;  ///< frozen + session seeds [U]
  std::vector<std::uint8_t> is_frozen_;
  std::vector<NodeId> committed_;      ///< session seeds, commit order
  Status poisoned_;                    ///< non-OK after a failed commit

  // Fan-out scratch, reused across queries: per-slot send/receive state,
  // each slot's decoded gain terms, and the fold's read cursor per slot.
  std::vector<FanOutSlot> fanout_;
  std::vector<GainTermsResponse> term_replies_;
  std::vector<std::size_t> term_cursor_;

  // TopKSeeds prefetch: prefetch_gain_[x] valid for the seed-set size
  // it was computed at (prefetch_commits_) — exactly the CELF initial
  // pass, fetched in batches instead of one RPC per candidate.
  std::vector<double> prefetch_gain_;
  std::vector<std::uint8_t> prefetch_valid_;
  std::uint64_t prefetch_commits_ = 0;

  // CELF scratch, mirroring ShardRouter's (the shared RunCelfTopK
  // machinery needs caller-owned arrays).
  std::vector<CelfQueueEntry> heap_;
  std::vector<CelfQueueEntry> batch_;
  std::vector<double> memo_gain_;
  std::vector<std::uint64_t> memo_stamp_;
  std::vector<double> gains_;
};

}  // namespace influmax

#endif  // INFLUMAX_NET_REMOTE_ROUTER_H_
