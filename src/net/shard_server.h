#ifndef INFLUMAX_NET_SHARD_SERVER_H_
#define INFLUMAX_NET_SHARD_SERVER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/timer.h"
#include "net/socket.h"
#include "net/wire.h"
#include "shard/generation_manager.h"

namespace influmax {

struct ShardServerOptions {
  std::string dir;          ///< generation directory (docs/sharding.md)
  int port = 0;             ///< RPC port; 0 picks ephemeral (see port())
  int metrics_port = -1;    ///< HTTP /metrics listener; <0 disables
  /// Shard index this process serves, or -1 for the whole generation.
  /// One process per shard is the scale-out deployment; -1 is the
  /// single-process fallback and what the bit-identity tests compare
  /// against. The server opens, validates and maps only the shard it
  /// serves, so its memory and start-up scale with that shard.
  int shard = -1;
  std::size_t max_sessions = 64;  ///< concurrent pinned connections
  bool recover = false;           ///< RecoverGenerationDir on open
  /// Span-count cap for the trace block piggybacked on a traced
  /// response (docs/tracing.md); larger blocks stay server-side behind
  /// kFrameFlagTraceOverflow until the client's kTraceFetch. Tests set
  /// this to 0 to force the fetch path on every traced request.
  std::size_t trace_piggyback_spans = 16;
};

/// One shard-serving process behind the wire protocol (net/wire.h,
/// docs/networking.md): owns a GenerationManager over `dir`, accepts
/// connections on a loopback TCP port, and answers the fold/commit/
/// reset vocabulary from a per-connection pinned Session — so a
/// generation swap never moves data under a connected client, exactly
/// the in-process Session contract stretched over a socket.
///
/// Start() opens a GenerationManager over the served shard only
/// (ShardRange::One, or the whole generation for shard -1): the other
/// shards' blobs are never read. Each per-shard check runs here on the
/// opened blob; the cross-shard ones (frozen seeds, A_u) are the
/// client's, which sees every server's hello.
///
/// Per-connection state: a GenerationManager::Session (the pin) plus
/// one SnapshotQueryEngine per served shard built against the pinned
/// generation, whose views divide by the manifest's GLOBAL A_u — the
/// same construction ShardRouter performs, so the partials computed here
/// are bit-identical to the in-process router's. Session capacity is enforced before the Session
/// is constructed (the manager CHECK-aborts on slot exhaustion; the
/// server refuses with Unavailable instead).
///
/// Deadlines: every request frame carries its remaining budget; the
/// handler rebuilds the Deadline at receipt and refuses requests that
/// are already (or become, mid-batch) too late with Unavailable — the
/// client treats that as a failover trigger.
///
/// Tracing (docs/tracing.md): a request whose frame carries
/// kFrameFlagTraced has its 16-byte trace context stripped
/// unconditionally (even INFLUMAX_OBS_OFF builds must leave the payload
/// decodable); when observability is compiled in, the handler records
/// request / decode / pin / per-slot-fold / send child spans and ships
/// them back as a span-block prefix on the response — or parks them
/// behind kFrameFlagTraceOverflow for a kTraceFetch when they exceed
/// trace_piggyback_spans.
///
/// Failpoint sites (chaos matrix, tests/net_fault_test.cc):
/// "net.server.request" (delay a request / drop the connection before
/// handling), "net.server.fold_step" (between per-shard fold steps —
/// the mid-fold crash), "net.server.send" (tear the response frame at
/// an exact byte offset).
///
/// Start() returns with the accept loop running; Stop() (also run by
/// the destructor) aborts the listener and every live connection and
/// joins all handler threads. Kill() is Stop() minus any grace — it
/// hard-aborts connections mid-request, the "replica process died"
/// lever the failover tests pull.
class ShardServer {
 public:
  static Result<std::unique_ptr<ShardServer>> Start(
      const ShardServerOptions& options);

  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

  /// Graceful shutdown; idempotent.
  void Stop();

  /// Abrupt death: aborts every connection mid-whatever and stops.
  void Kill() { Stop(); }

  /// Generation currently served to NEW connections (existing ones stay
  /// pinned). Serialized against Refresh().
  std::uint64_t current_generation();

  /// RefreshFromDisk under the server's publish lock — the rolling-
  /// restart path: an external splitter flips CURRENT, the server picks
  /// it up, clients re-pin on their next reconnect. A generation without
  /// the served shard is refused with FailedPrecondition (and not
  /// quarantined); the published generation keeps serving.
  Result<bool> Refresh(const Deadline& deadline = Deadline::Infinite());

  /// The underlying manager, for tests and the serving tool (ingest,
  /// retry policy). Writer-side calls must be serialized with Refresh().
  GenerationManager& manager() { return *manager_; }

  /// Connections currently holding a pinned session.
  std::size_t sessions_active() const;

 private:
  struct Conn;

  ShardServer() = default;

  void AcceptLoop();
  void HandleConn(Conn* conn);
  void MetricsLoop();

  /// Serves one HTTP request on an accepted metrics connection.
  void HandleMetricsConn(TcpConn conn);

  ShardServerOptions options_;
  std::unique_ptr<GenerationManager> manager_;
  TcpListener listener_;
  TcpListener metrics_listener_;
  int port_ = 0;
  int metrics_port_ = -1;

  std::thread accept_thread_;
  std::thread metrics_thread_;

  /// Serializes writer-side manager calls (Refresh) with the cached
  /// ping state reads below.
  std::mutex publish_mu_;
  PongResponse pong_state_;  ///< guarded by publish_mu_

  mutable std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;  ///< guarded by conns_mu_
  bool stopping_ = false;                   ///< guarded by conns_mu_
  std::size_t sessions_active_ = 0;         ///< guarded by conns_mu_
};

}  // namespace influmax

#endif  // INFLUMAX_NET_SHARD_SERVER_H_
