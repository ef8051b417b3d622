#ifndef INFLUMAX_TOOLS_SERVE_REPL_H_
#define INFLUMAX_TOOLS_SERVE_REPL_H_

// The serving REPL of serve_shards (docs/serving.md): one command loop
// over the query front (src/shard/query_front.h) for both transports, a
// local GenerationManager session and a RemoteShardRouter over
// shard_server processes (--connect). The loop parses every command,
// wraps each query in its span, its serve.query.* timer and, when the
// transport traces, a distributed trace, and prints a failed answer as
// a `! <status>` line. A transport supplies its front, refresh, the
// `stats` line and its own commands. Header-only, like serve_common.h.
//
// One command per line; answers go to stdout:
//   topk K [BUDGET]   CELF greedy seeds across all shards (Algorithm 3)
//   gain X            routed marginal gain (Theorem 3)
//   commit X          commit X into the session (Algorithm 5)
//   spread X Y Z ...  sigma_cd of the given set
//   reset             rewind the session
//   refresh           re-pin the latest generation
//   failpoint list | arm NAME SPEC | disarm NAME | disarm all
//                     fault injection (needs an INFLUMAX_FAILPOINTS build)
//   stats             the transport's counters on one line
//   metrics [prom|spans]  registry table, Prometheus text, or the span
//                     ring of this REPL's queries
//   quit
// Local only:
//   recover           crash recovery on the directory, then refresh
// --connect only:
//   probe             ping every replica of every slot
//   trace [ID|json [PATH]]  the collector's recent + slow traces, one
//                     stitched timeline, or Chrome trace JSON

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/remote_router.h"
#include "obs/span.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "serve_common.h"
#include "shard/generation_manager.h"
#include "shard/query_front.h"
#include "shard/recovery.h"

namespace influmax {

/// What one transport gives the serving REPL.
class ReplTransport {
 public:
  virtual ~ReplTransport() = default;

  /// The session's query front. A local refresh that swaps the
  /// generation builds a new router, and with it a new front, so the
  /// loop asks for it per command.
  virtual QueryFront& front() = 0;

  /// Re-pins the latest generation; true when it changed.
  virtual Result<bool> Refresh() = 0;
  virtual std::uint64_t generation() const = 0;

  /// The `stats` line.
  virtual void PrintStats() = 0;

  /// Runs a command only this transport has; false when `command` is
  /// not one of them.
  virtual bool RunCommand(const std::string& command,
                          std::istringstream& in) = 0;

  /// The collector every query is traced under, or nullptr.
  virtual TraceCollector* trace_collector() { return nullptr; }
};

/// Prints a failed answer's status as a `! ...` line; true when OK.
inline bool Answered(const Status& status) {
  if (!status.ok()) std::printf("! %s\n", status.ToString().c_str());
  return status.ok();
}

/// `refresh`: re-pins, then prints the generation and whether it moved.
inline void RefreshAndPrint(ReplTransport& transport) {
  const Result<bool> moved = transport.Refresh();
  if (!Answered(moved.status())) return;
  std::printf("# generation %llu%s\n",
              static_cast<unsigned long long>(transport.generation()),
              *moved ? " (swapped)" : " (unchanged)");
}

inline void PrintSelection(const SnapshotSeedSelection& selection) {
  for (std::size_t i = 0; i < selection.seeds.size(); ++i) {
    std::printf("%u\t%.6f\t%.6f\n", selection.seeds[i],
                selection.marginal_gains[i], selection.cumulative_spread[i]);
  }
  std::printf("# %zu seeds, %llu gain evaluations\n",
              selection.seeds.size(),
              static_cast<unsigned long long>(selection.gain_evaluations));
}

/// The NODE operand of `gain` / `commit`, or nullopt after printing the
/// usage line. The stream state decides, not the value: a failed
/// extraction writes 0, and committing node 0 on a typo would silently
/// poison the session.
inline std::optional<NodeId> NodeOperand(std::istringstream& in,
                                         const std::string& command) {
  NodeId x;
  if (in >> x) return x;
  std::printf("! usage: %s NODE\n", command.c_str());
  return std::nullopt;
}

/// Reads commands from `input` until EOF or `quit` and answers them
/// through `transport`. Returns the exit code of the final metrics dump.
inline int RunServingRepl(std::istream& input, ReplTransport& transport,
                          const MetricsDump& dump) {
  const ServeQueryMetrics& qm = GetServeQueryMetrics();
  SpanRing ring(256);
  TraceCollector* const collector = transport.trace_collector();
  // One query's telemetry: its span and timer, inside its trace.
  const auto timed = [&](std::uint16_t name, std::uint64_t detail,
                         Timer* timer, const auto& query) {
    if (collector != nullptr) collector->StartTrace(name, detail);
    auto answer = [&] {
      ObsSpan span(&ring, name, detail, timer);
      return query();
    }();
    if (collector != nullptr) collector->EndTrace();
    return answer;
  };
  std::string line;
  while (std::getline(input, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') continue;
    if (command == "quit" || command == "exit") break;
    QueryFront& front = transport.front();
    front.set_span_ring(&ring);
    if (command == "topk") {
      NodeId k = 0;
      in >> k;
      double budget;  // optional second operand
      if (!(in >> budget)) budget = std::numeric_limits<double>::infinity();
      if (k == 0) {
        std::printf("! usage: topk K [BUDGET]\n");
      } else {
        auto selection = timed(kSpanQueryTopk, k, qm.topk,
                               [&] { return front.TopKSeeds(k, budget); });
        if (Answered(selection.status())) PrintSelection(*selection);
      }
    } else if (command == "gain") {
      if (const std::optional<NodeId> x = NodeOperand(in, command)) {
        auto gain = timed(kSpanQueryGain, *x, qm.gain,
                          [&] { return front.MarginalGain(*x); });
        if (Answered(gain.status())) std::printf("%.6f\n", *gain);
      }
    } else if (command == "commit") {
      if (const std::optional<NodeId> x = NodeOperand(in, command)) {
        if (Answered(timed(kSpanQueryCommit, *x, qm.commit,
                           [&] { return front.CommitSeed(*x); }))) {
          std::printf("# %zu session seeds\n", front.session_seeds().size());
        }
      }
    } else if (command == "spread") {
      std::vector<NodeId> seeds;
      NodeId x;
      while (in >> x) seeds.push_back(x);
      auto spread = timed(kSpanQuerySpread, seeds.size(), qm.spread,
                          [&] { return front.SpreadOf(seeds); });
      if (Answered(spread.status())) std::printf("%.6f\n", *spread);
    } else if (command == "reset") {
      if (Answered(timed(kSpanQueryReset, 0, qm.reset,
                         [&] { return front.ResetSession(); }))) {
        std::printf("# session reset\n");
      }
    } else if (command == "refresh") {
      RefreshAndPrint(transport);
    } else if (command == "failpoint") {
      HandleFailpointCommand(in);
    } else if (command == "metrics") {
      HandleMetricsCommand(in, &ring, dump);
    } else if (command == "stats") {
      transport.PrintStats();
    } else if (!transport.RunCommand(command, in)) {
      std::printf("! unknown command '%s' (topk | gain | commit | spread | "
                  "reset | refresh | failpoint ... | stats | metrics "
                  "[prom|spans] | quit; local: recover; --connect: probe | "
                  "trace [ID|json [PATH]])\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }
  return dump.DumpAll();
}

// ------------------------------------------------------------- local

inline void PrintRecoveryReport(const RecoveryReport& report) {
  std::fprintf(stderr,
               "recovered: serving %s (generation %llu)%s, removed %zu "
               "leftover file(s), filled %zu quarantine dir(s)\n",
               report.current_manifest.c_str(),
               static_cast<unsigned long long>(report.generation),
               report.current_rewritten ? ", CURRENT repointed" : "",
               report.removed.size(), report.quarantined.size());
  for (const std::string& q : report.quarantined) {
    std::fprintf(stderr, "  quarantined: %s\n", q.c_str());
  }
}

/// One GenerationManager session: gains summed over in-process shard
/// engines, commits fanned out over the manager's shard pool.
class LocalReplTransport final : public ReplTransport {
 public:
  explicit LocalReplTransport(GenerationManager& manager)
      : manager_(manager), session_(manager) {}

  GenerationManager::Session& session() { return session_; }

  QueryFront& front() override { return session_.router().front(); }
  Result<bool> Refresh() override { return session_.Refresh(); }
  std::uint64_t generation() const override { return session_.generation(); }

  /// Manifest, session and registry totals. Lifecycle counters come from
  /// the metrics registry, the same values `metrics` and the Prometheus
  /// dump expose; under INFLUMAX_OBS_OFF the scrape is empty and the
  /// gauges fall back to what the manager can answer directly.
  void PrintStats() override {
    const ShardManifest& m = session_.shards().manifest;
    ShardRouter& router = session_.router();
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    const auto counter_of = [&snap](const char* name) {
      return static_cast<unsigned long long>(CounterValue(snap, name));
    };
    const auto* retired_gauge = snap.FindGauge("shard.generation.retired");
    const auto* pinned_gauge =
        snap.FindGauge("shard.generation.pinned_sessions");
    const std::uint64_t retired =
        retired_gauge != nullptr
            ? static_cast<std::uint64_t>(retired_gauge->value)
            : manager_.retired_generations();
    std::printf(
        "generation=%llu latest=%llu shards=%zu users=%u actions=%u "
        "lambda=%g session_seeds=%zu mapped=%llu pool=%llu router=%llu "
        "retired=%llu pinned_sessions=%lld swaps=%llu ingests=%llu "
        "replayed_tuples=%llu watch_ticks=%llu watch_errors=%llu "
        "ingest_failures=%llu recovery_events=%llu quarantined=%llu "
        "pool_jobs=%llu net_rpc=%llu net_rpc_errors=%llu "
        "net_failovers=%llu net_reconnects=%llu "
        "net_server_requests=%llu net_server_errors=%llu "
        "net_server_rejected=%llu net_server_deadline_exceeded=%llu\n",
        static_cast<unsigned long long>(session_.generation()),
        static_cast<unsigned long long>(manager_.current_generation()),
        m.num_shards(), m.num_users, m.num_actions, m.truncation_threshold,
        router.session_seeds().size(),
        static_cast<unsigned long long>(session_.shards().mapped_bytes()),
        static_cast<unsigned long long>(session_.shards().pool_bytes()),
        static_cast<unsigned long long>(router.ApproxMemoryBytes()),
        static_cast<unsigned long long>(retired),
        pinned_gauge != nullptr ? static_cast<long long>(pinned_gauge->value)
                                : 1LL,
        counter_of("shard.generation.swaps"), counter_of("shard.ingest.count"),
        counter_of("shard.ingest.replayed_tuples"),
        counter_of("shard.watch.ticks"), counter_of("shard.watch.errors"),
        counter_of("gen.ingest_failures"), counter_of("gen.recovery_events"),
        counter_of("gen.quarantined"), counter_of("pool.jobs"),
        counter_of("net.rpc.count"), counter_of("net.rpc.errors"),
        counter_of("net.failovers"), counter_of("net.reconnects"),
        counter_of("net.server.requests"), counter_of("net.server.errors"),
        counter_of("net.server.rejected"),
        counter_of("net.server.deadline_exceeded"));
  }

  /// `recover`: self-healing while serving. Sweeps the directory, then
  /// re-pins; the session keeps answering from its pinned mmaps
  /// throughout, even if recovery repointed CURRENT under it.
  bool RunCommand(const std::string& command, std::istringstream&) override {
    if (command != "recover") return false;
    auto report = RecoverGenerationDir(manager_.dir());
    if (!Answered(report.status())) return true;
    PrintRecoveryReport(*report);
    if (auto refreshed = manager_.RefreshFromDisk(); !refreshed.ok()) {
      std::printf("! refresh after recover: %s\n",
                  refreshed.status().ToString().c_str());
      return true;
    }
    RefreshAndPrint(*this);
    return true;
  }

 private:
  GenerationManager& manager_;
  GenerationManager::Session session_;
};

// ------------------------------------------------------------ remote

/// One line per retained trace: id, root name, duration, span counts,
/// failover/fetch attribution.
inline void PrintTraceLine(const TraceRecord& t) {
  std::printf("  %016llx %-14s %10.3f ms  spans=%zu remote=%u failovers=%u "
              "fetches=%u detail=%llu\n",
              static_cast<unsigned long long>(t.trace_id),
              SpanNameString(t.root_name_id),
              static_cast<double>(t.duration_ns) / 1e6, t.spans.size(),
              t.remote_spans, t.failovers, t.fetches,
              static_cast<unsigned long long>(t.detail));
}

/// `trace` (docs/tracing.md): no operand lists the recent and slow
/// rings; `trace json [PATH]` exports Chrome trace-event JSON (stdout
/// when PATH is omitted); any other operand is a hex trace id, printed
/// span by span on the stitched timeline.
inline void HandleTraceCommand(std::istringstream& in,
                               const TraceCollector& collector) {
  std::string arg;
  in >> arg;
  if (arg.empty()) {
    const std::vector<TraceRecord> recent = collector.Traces();
    const std::vector<TraceRecord> slow = collector.SlowTraces();
    if (recent.empty() && slow.empty()) {
      std::printf("no traces recorded%s\n",
                  kObsEnabled ? "" : " (built with INFLUMAX_OBS_OFF)");
      return;
    }
    std::printf("recent traces (oldest first):\n");
    for (const TraceRecord& t : recent) PrintTraceLine(t);
    std::printf("slow traces (slowest first; the slow-query log):\n");
    for (const TraceRecord& t : slow) PrintTraceLine(t);
    return;
  }
  if (arg == "json") {
    std::string path;
    in >> path;
    if (path.empty()) {
      const std::string json = collector.TraceEventJson();
      std::fwrite(json.data(), 1, json.size(), stdout);
    } else if (Answered(collector.WriteTraceJson(path))) {
      std::printf("# wrote %s\n", path.c_str());
    }
    return;
  }
  const std::uint64_t id = std::strtoull(arg.c_str(), nullptr, 16);
  const std::optional<TraceRecord> trace = collector.FindTrace(id);
  if (!trace.has_value()) {
    std::printf("! no retained trace %s (ids are hex; bare `trace` lists "
                "them)\n",
                arg.c_str());
    return;
  }
  PrintTraceLine(*trace);
  for (const TraceSpan& s : trace->spans) {
    // start offset is signed: clock re-anchoring can land a remote span
    // a hair before the root's first local timestamp.
    const double start_ms =
        static_cast<double>(
            static_cast<std::int64_t>(s.rec.start_ns - trace->start_ns)) /
        1e6;
    std::printf("    %-18s origin=%u/%u start%+.3f ms dur %.3f ms "
                "detail=%llu%s%s%s\n",
                SpanNameString(s.rec.name_id), s.rec.origin >> 8,
                s.rec.origin & 0xffu, start_ms,
                static_cast<double>(s.rec.duration_ns) / 1e6,
                static_cast<unsigned long long>(s.rec.detail),
                (s.rec.flags & kSpanFlagRemote) != 0 ? " remote" : "",
                (s.rec.flags & kSpanFlagFailover) != 0 ? " FAILOVER" : "",
                (s.rec.flags & kSpanFlagFetched) != 0 ? " fetched" : "");
  }
}

/// A RemoteShardRouter over shard_server processes. Every query runs
/// under `collector`, which the transport attaches to the router.
class RemoteReplTransport final : public ReplTransport {
 public:
  RemoteReplTransport(RemoteShardRouter& router, TraceCollector& collector)
      : router_(router), collector_(collector) {
    router_.set_trace_collector(&collector_);
  }

  QueryFront& front() override { return router_.front(); }
  Result<bool> Refresh() override { return router_.Refresh(); }
  std::uint64_t generation() const override { return router_.generation(); }
  TraceCollector* trace_collector() override { return &collector_; }

  /// Topology, the client-side net.rpc.* counters and the trace totals.
  void PrintStats() override {
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    const auto counter_of = [&snap](const char* name) {
      return static_cast<unsigned long long>(CounterValue(snap, name));
    };
    std::printf(
        "generation=%llu slots=%zu users=%u actions=%u session_seeds=%zu "
        "net_rpc=%llu net_rpc_errors=%llu net_rpc_retries=%llu "
        "net_failovers=%llu net_reconnects=%llu net_commit_replays=%llu "
        "net_server_requests=%llu net_server_errors=%llu "
        "net_server_rejected=%llu net_server_deadline_exceeded=%llu "
        "trace_count=%llu trace_slow=%llu trace_fetches=%llu\n",
        static_cast<unsigned long long>(router_.generation()),
        router_.num_slots(), router_.num_users(), router_.num_actions(),
        router_.session_seeds().size(), counter_of("net.rpc.count"),
        counter_of("net.rpc.errors"), counter_of("net.rpc.retries"),
        counter_of("net.failovers"), counter_of("net.reconnects"),
        counter_of("net.commit_replays"), counter_of("net.server.requests"),
        counter_of("net.server.errors"), counter_of("net.server.rejected"),
        counter_of("net.server.deadline_exceeded"), counter_of("trace.count"),
        counter_of("trace.slow"), counter_of("trace.fetches"));
  }

  /// `probe` pings every replica of every slot; `trace` inspects the
  /// stitched traces.
  bool RunCommand(const std::string& command,
                  std::istringstream& in) override {
    if (command == "trace") {
      HandleTraceCommand(in, collector_);
      return true;
    }
    if (command != "probe") return false;
    for (const ReplicaHealth& h : router_.ProbeReplicas()) {
      std::printf("slot %zu replica %zu\t%s\tgeneration=%llu sessions=%u "
                  "metrics_port=%d\n",
                  h.slot, h.replica, h.healthy ? "healthy" : "DOWN",
                  static_cast<unsigned long long>(h.generation),
                  h.sessions_active, h.metrics_port);
    }
    return true;
  }

 private:
  RemoteShardRouter& router_;
  TraceCollector& collector_;
};

}  // namespace influmax

#endif  // INFLUMAX_TOOLS_SERVE_REPL_H_
