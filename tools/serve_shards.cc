// The serving CLI (docs/serving.md, docs/sharding.md). Monolithic
// serving is a 1-shard generation (--shards=1).
//
// Split a credit snapshot (or a freshly scanned graph+log) into an
// action-range sharded generation directory:
//   serve_shards --split --snapshot=d.snap --dir=D --shards=4
//   serve_shards --split --build --graph=g.tsv --log=l.tsv --dir=D \
//       --shards=4 [--lambda=0.001] [--credit=timedecay]
//
// Serve queries from the directory's CURRENT generation (one session,
// queries answered by the gain-merging ShardRouter; bit-identical to the
// live model; commits fan out over the manager's shard pool), one
// command per stdin line (serve_repl.h lists them):
//   serve_shards --dir=D
// --recover runs the REPL's `recover` before opening (the restart path);
// --failpoints=name=spec;... arms failpoints at startup and errors
// loudly when the build compiled them out. With --metrics_json=<path> /
// --metrics_prom=<path> the registry is dumped to those files after
// every `metrics` command and at exit.
//
// Tail an appended action log into new generations while serving
// (generation-swap ingestion; the REPL keeps answering from its pinned
// generation until `refresh`):
//   serve_shards --dir=D --watch --graph=g.tsv --log=l.tsv [--poll_ms=500]
// or run one ingest and exit:
//   serve_shards --ingest --dir=D --graph=g.tsv --log=l.tsv
//
// Latency report (per-thread histograms merged with LatencyHistogram::
// Merge, per-shard gain-term p50/p95/p99 in --json); with --graph and
// --log it also rebuilds the live model and exits non-zero unless its
// SelectSeeds(k) equals the served TopKSeeds(k) bit for bit:
//   serve_shards --bench --dir=D [--threads=4 --k=50 --json=out.json]
//       [--graph=g.tsv --log=l.tsv --credit=equal]
//
// Cross-process serving (docs/networking.md): the same REPL over
// running shard_server processes — one slot per action-range shard in
// range order, '|'-separated replicas per slot — every query traced
// (docs/tracing.md; --slow_query_ms, --trace_json). --fleet_port=N also
// serves one fleet-merged Prometheus /metrics (docs/observability.md):
//   serve_shards --connect="host:p0|host:p0b,host:p1" [--rpc_deadline_ms=N]
// Loopback net bench: one in-process ShardServer per shard behind a
// RemoteShardRouter, answers checked bit-identical to the in-process
// ShardRouter, remote vs local percentiles recorded to --json:
//   serve_shards --bench_net --dir=D [--k=50 --json=out.json]
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "actionlog/log_io.h"
#include "common/bench_json.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "core/fixed_gain.h"
#include "graph/graph_io.h"
#include "net/fed_metrics.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "obs/trace.h"
#include "probability/time_params.h"
#include "serve_common.h"
#include "serve_repl.h"
#include "shard/generation_manager.h"
#include "shard/recovery.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace {

/// Truncation threshold recorded by the directory's live manifest.
Result<double> CurrentLambda(const std::string& dir) {
  auto name = ReadCurrentManifestName(dir);
  INFLUMAX_RETURN_IF_ERROR(name.status());
  auto manifest = ReadShardManifest(dir + "/" + *name);
  INFLUMAX_RETURN_IF_ERROR(manifest.status());
  return manifest->truncation_threshold;
}

void PrintManifest(const ShardManifest& m, const char* verb) {
  std::fprintf(stderr, "%s generation %llu: %u actions over %zu shards (",
               verb, static_cast<unsigned long long>(m.generation),
               m.num_actions, m.num_shards());
  for (std::size_t i = 0; i < m.num_shards(); ++i) {
    std::fprintf(stderr, "%s[%u,%u)", i == 0 ? "" : " ", m.range_begin[i],
                 m.range_begin[i + 1]);
  }
  std::fprintf(stderr, ")\n");
}

int RunSplit(const std::string& snapshot_path, bool build,
             const std::string& graph_path, const std::string& log_path,
             const std::string& credit_name, double lambda,
             const std::string& dir, std::size_t shards,
             std::uint64_t generation) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create '%s': %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  ShardedSnapshotWriter writer(dir, shards);
  ShardManifest manifest;
  WallTimer timer;
  if (build) {
    auto graph = LoadGraph(graph_path);
    if (!graph.ok()) return Fail(graph.status());
    auto log = LoadLog(log_path);
    if (!log.ok()) return Fail(log.status());
    auto credit = MakeCredit(credit_name, *graph, *log);
    if (!credit.ok()) return Fail(credit.status());
    CdConfig config;
    config.truncation_threshold = lambda;
    auto model =
        CreditDistributionModel::Build(*graph, *log, *credit->model, config);
    if (!model.ok()) return Fail(model.status());
    if (Status status = writer.WriteFromModel(*model, generation, &manifest);
        !status.ok()) {
      return Fail(status);
    }
  } else {
    auto view = CreditSnapshotView::Open(snapshot_path);
    if (!view.ok()) return Fail(view.status());
    if (Status status = writer.WriteFromView(*view, generation, &manifest);
        !status.ok()) {
      return Fail(status);
    }
  }
  if (Status status =
          WriteCurrentManifestName(dir, ManifestFileName(generation));
      !status.ok()) {
    return Fail(status);
  }
  PrintManifest(manifest, "split");
  std::fprintf(stderr, "wrote %s/%s + %zu shard blobs in %.2fs\n",
               dir.c_str(), ManifestFileName(generation).c_str(),
               manifest.num_shards(), timer.ElapsedSeconds());
  return 0;
}

int RunIngest(GenerationManager& manager, const std::string& graph_path,
              const std::string& log_path, const std::string& credit_name) {
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto log = LoadLog(log_path);
  if (!log.ok()) return Fail(log.status());
  auto credit = MakeCredit(credit_name, *graph, *log);
  if (!credit.ok()) return Fail(credit.status());
  // The only fair (and hash-compatible) rescan uses the lambda the
  // generation was scanned with, which the manifest records.
  auto lambda = CurrentLambda(manager.dir());
  if (!lambda.ok()) return Fail(lambda.status());
  CdConfig config;
  config.truncation_threshold = *lambda;
  WallTimer timer;
  IngestStats stats;
  if (Status status = manager.IngestLog(*log, *graph, *credit->model, config,
                                        /*shard_threads=*/0, &stats);
      !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr,
               "ingested generation %llu: %u unchanged, %u extended, %u new "
               "actions, %llu tuples replayed in %.2fs\n",
               static_cast<unsigned long long>(stats.generation),
               stats.unchanged_actions, stats.rescanned_actions,
               stats.new_actions,
               static_cast<unsigned long long>(stats.replayed_tuples),
               timer.ElapsedSeconds());
  return 0;
}

int RunServe(GenerationManager& manager, const MetricsDump& dump) {
  LocalReplTransport transport(manager);
  const ShardManifest& m = transport.session().shards().manifest;
  PrintManifest(m, "serving");
  std::fprintf(stderr, "%u users, lambda %g\n", m.num_users,
               m.truncation_threshold);
  return RunServingRepl(std::cin, transport, dump);
}

/// Users that have acted (A_u != 0), the benches' query set. Empty, after
/// saying so on stderr, when nobody has.
std::vector<NodeId> ActiveUsers(const ShardManifest& m) {
  std::vector<NodeId> active;
  for (NodeId x = 0; x < m.num_users; ++x) {
    if (m.au[x] != 0) active.push_back(x);
  }
  if (active.empty()) {
    std::fprintf(stderr, "no active users, nothing to bench\n");
  }
  return active;
}

/// A counter of a registry scrape as a bench-json value record.
BenchJsonRecord CounterRecord(const MetricsSnapshot& snap, const char* name) {
  BenchJsonRecord record{name, 0.0, 0, 1};
  record.has_value = true;
  record.value = static_cast<double>(CounterValue(snap, name));
  return record;
}

/// --bench: routed-gain latency under `threads` concurrent sessions
/// (per-thread LatencyHistograms merged with Merge(), never a shared
/// locked histogram), per-shard gain-term percentiles, and routed topk.
/// Rebuilds the live model from the log with the generation's lambda
/// and checks its SelectSeeds(k) against the served selection, bit for
/// bit: the end-to-end form of "a generation serves the live model's
/// answers". Non-zero on a mismatch.
int CheckAgainstRebuild(const SnapshotSeedSelection& served, int k,
                        double lambda, const std::string& graph_path,
                        const std::string& log_path,
                        const std::string& credit_name,
                        std::vector<BenchJsonRecord>* records) {
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto log = LoadLog(log_path);
  if (!log.ok()) return Fail(log.status());
  auto credit = MakeCredit(credit_name, *graph, *log);
  if (!credit.ok()) return Fail(credit.status());
  WallTimer timer;
  CdConfig config;
  config.truncation_threshold = lambda;
  auto model =
      CreditDistributionModel::Build(*graph, *log, *credit->model, config);
  if (!model.ok()) return Fail(model.status());
  auto live = model->SelectSeeds(static_cast<NodeId>(k));
  if (!live.ok()) return Fail(live.status());
  const double rebuild_ms = timer.ElapsedSeconds() * 1e3;
  std::printf("rebuild + select: %.2f ms\n", rebuild_ms);
  records->push_back(
      {"rebuild_topk", rebuild_ms * 1e6, model->ApproxMemoryBytes(), 1});
  if (live->seeds != served.seeds ||
      live->marginal_gains != served.marginal_gains ||
      live->cumulative_spread != served.cumulative_spread ||
      live->gain_evaluations != served.gain_evaluations) {
    std::printf("! seed mismatch between the served generation and a "
                "rebuild\n");
    return 1;
  }
  std::printf("served seeds match the rebuild\n");
  return 0;
}

int RunBench(GenerationManager& manager, std::size_t threads, int k,
             std::size_t samples, const std::string& graph_path,
             const std::string& log_path, const std::string& credit_name,
             const std::string& json_path, const MetricsDump& dump) {
  std::vector<BenchJsonRecord> records;
  GenerationManager::Session main_session(manager);
  const ShardManifest& m = main_session.shards().manifest;
  PrintManifest(m, "bench");

  std::vector<NodeId> active = ActiveUsers(m);
  if (active.empty()) return 1;


  // Routed gains, `threads` sessions each working a stripe of the active
  // users; per-thread digests merged at the end (Merge is
  // order-independent, so the merged percentiles are deterministic).
  std::vector<std::unique_ptr<GenerationManager::Session>> sessions;
  for (std::size_t t = 0; t < threads; ++t) {
    sessions.push_back(
        std::make_unique<GenerationManager::Session>(manager));
  }
  LatencyHistogram routed_hist;
  double checksum = 0.0;
  {
    std::vector<LatencyHistogram> gain_hist(threads);
    std::vector<double> partial(threads, 0.0);
    WallTimer timer;
    ParallelForChunked(
        active.size(), threads,
        [&](std::size_t tid, std::size_t begin, std::size_t end) {
          ShardRouter& router = sessions[tid]->router();
          WallTimer query_timer;
          double sum = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            query_timer.Reset();
            sum += router.MarginalGain(active[i]);
            gain_hist[tid].Record(query_timer.ElapsedSeconds() * 1e9);
          }
          partial[tid] = sum;
        });
    const double ns_per_query =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(active.size());
    for (std::size_t t = 0; t < threads; ++t) {
      routed_hist.Merge(gain_hist[t]);
      checksum += partial[t];
    }
    std::printf("routed gain: %.3f us/query over %zu active users x %zu "
                "sessions (checksum %.3f)\n",
                ns_per_query / 1e3, active.size(), threads, checksum);
    PrintPercentiles("routed_gain", routed_hist);
    records.push_back(WithPercentiles(
        {"shard_gain_routed", ns_per_query, 0, threads}, routed_hist));
  }

  // Per-shard gain-term latency: where each query's time actually goes,
  // one histogram (and one --json record with p50/p95/p99) per shard.
  ShardRouter& router = main_session.router();
  for (std::size_t i = 0; i < router.num_shards(); ++i) {
    const SnapshotQueryEngine& engine = router.shard_engine(i);
    LatencyHistogram hist;
    WallTimer query_timer;
    double sink = 0.0;
    for (NodeId x : active) {
      query_timer.Reset();
      sink += FromFixed(engine.PartialGain(x));
      hist.Record(query_timer.ElapsedSeconds() * 1e9);
    }
    char label[48];
    std::snprintf(label, sizeof(label), "shard%zu_gain_terms", i);
    std::printf("shard %zu [%u,%u): checksum %.3f\n", i, m.range_begin[i],
                m.range_begin[i + 1], sink);
    PrintPercentiles(label, hist);
    records.push_back(
        WithPercentiles({label, hist.Percentile(50.0), 0, 1}, hist));
  }

  // Routed topk.
  LatencyHistogram topk_hist;
  SnapshotSeedSelection selection;
  for (std::size_t sample = 0; sample < samples; ++sample) {
    WallTimer query_timer;
    auto current = router.TopKSeeds(static_cast<NodeId>(k));
    topk_hist.Record(query_timer.ElapsedSeconds() * 1e9);
    if (sample == 0) selection = std::move(current);
  }
  std::printf("topk(%d): %llu gain evaluations, router %s, pool %s\n", k,
              static_cast<unsigned long long>(selection.gain_evaluations),
              FormatBytes(router.ApproxMemoryBytes()).c_str(),
              FormatBytes(main_session.shards().pool_bytes()).c_str());
  PrintPercentiles("shard_topk", topk_hist);
  records.push_back(WithPercentiles(
      {"shard_topk", topk_hist.Percentile(50.0),
       router.ApproxMemoryBytes(), 1},
      topk_hist));

  // Generation-lifecycle state at bench end, for the archived record:
  // retired generations still held and sessions pinned (the bench's
  // `threads` stripes plus main_session). The pinned count reads the
  // same gauge the Prometheus dump exposes; with INFLUMAX_OBS_OFF it
  // falls back to what this function pinned itself.
  {
    BenchJsonRecord retired{"retired_generations", 0.0, 0, 1};
    retired.has_value = true;
    retired.value = static_cast<double>(manager.retired_generations());
    records.push_back(std::move(retired));
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    const auto* pinned_gauge =
        snap.FindGauge("shard.generation.pinned_sessions");
    BenchJsonRecord pinned{"pinned_sessions", 0.0, 0, threads};
    pinned.has_value = true;
    pinned.value = pinned_gauge != nullptr
                       ? static_cast<double>(pinned_gauge->value)
                       : static_cast<double>(threads + 1);
    records.push_back(std::move(pinned));
    // Robustness counters (docs/durability.md): normally zero, nonzero
    // exactly when a bench run crossed an ingest failure or a recovery
    // repaired the directory — the archived trajectory flags it.
    records.push_back(CounterRecord(snap, "gen.ingest_failures"));
    records.push_back(CounterRecord(snap, "gen.recovery_events"));
  }

  int rc = 0;
  if (!graph_path.empty() && !log_path.empty()) {
    rc = CheckAgainstRebuild(selection, k, m.truncation_threshold,
                             graph_path, log_path, credit_name, &records);
  }
  if (!json_path.empty()) rc |= WriteBenchJson(json_path, records);
  rc |= dump.DumpAll();
  return rc;
}

/// --connect: the serving REPL over RemoteShardRouter, answered by
/// shard_server processes, every query under the trace collector
/// (docs/tracing.md). With --fleet_port the process also serves one
/// fleet-merged Prometheus endpoint federating every replica's /metrics.
int RunConnect(const std::string& spec, int rpc_deadline_ms,
               int slow_query_ms, int fleet_port,
               const std::string& trace_json, const MetricsDump& dump) {
  auto endpoints = ParseEndpointSpec(spec);
  if (!endpoints.ok()) return Fail(endpoints.status());
  RemoteRouterOptions options;
  options.replica_sets = *endpoints;  // fleet discovery reuses the hosts
  options.rpc_deadline_ms = static_cast<std::uint64_t>(rpc_deadline_ms);
  auto router_or = RemoteShardRouter::Connect(options);
  if (!router_or.ok()) return Fail(router_or.status());
  RemoteShardRouter& router = **router_or;
  std::fprintf(stderr,
               "connected: generation %llu, %u users, %u actions over %zu "
               "range slot(s)\n",
               static_cast<unsigned long long>(router.generation()),
               router.num_users(), router.num_actions(), router.num_slots());

  TraceCollectorOptions trace_options;
  trace_options.slow_query_ns =
      static_cast<std::uint64_t>(slow_query_ms) * 1000000ull;
  TraceCollector collector(trace_options);
  RemoteReplTransport transport(router, collector);

  // Fleet metrics federation (docs/observability.md): every healthy
  // replica that advertised a metrics port in its pong becomes a scrape
  // target of one merged endpoint, instance-labeled host:rpc_port.
  std::unique_ptr<FleetMetricsServer> fleet;
  if (fleet_port >= 0) {
    std::vector<FleetTarget> targets;
    for (const ReplicaHealth& h : router.ProbeReplicas()) {
      if (!h.healthy || h.metrics_port < 0) continue;
      const RemoteEndpoint& ep = (*endpoints)[h.slot][h.replica];
      targets.push_back(FleetTarget{ep.host, h.metrics_port,
                                    ep.host + ":" +
                                        std::to_string(ep.port)});
    }
    auto fleet_or = FleetMetricsServer::Start(fleet_port, std::move(targets));
    if (!fleet_or.ok()) return Fail(fleet_or.status());
    fleet = std::move(*fleet_or);
    std::fprintf(stderr,
                 "fleet /metrics on 127.0.0.1:%d federating %zu replica "
                 "endpoint(s)\n",
                 fleet->port(), fleet->num_targets());
  }
  int rc = RunServingRepl(std::cin, transport, dump);
  if (!trace_json.empty()) {
    if (Status st = collector.WriteTraceJson(trace_json); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      rc = 1;
    }
  }
  return rc;
}

/// --bench_net: loopback remote-vs-local comparison. Starts one
/// in-process ShardServer per shard of the generation, routes through
/// RemoteShardRouter, and measures routed gains and topk against the
/// in-process ShardRouter on the same directory — failing loudly if any
/// answer is not bit-identical, so the archived BENCH_net.json numbers
/// always describe a correct configuration.
int RunBenchNet(GenerationManager& manager, const std::string& dir, int k,
                std::size_t samples, int rpc_deadline_ms, int slow_query_ms,
                const std::string& trace_json, const std::string& json_path,
                const MetricsDump& dump) {
  std::vector<BenchJsonRecord> records;
  GenerationManager::Session local_session(manager);
  ShardRouter& local = local_session.router();
  const ShardManifest& m = local_session.shards().manifest;
  PrintManifest(m, "bench_net");

  // One server process-equivalent per shard, each on an ephemeral
  // loopback port with its own GenerationManager over the same
  // directory (read-only mmaps of the same pinned generation).
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::string spec;
  for (std::size_t i = 0; i < m.num_shards(); ++i) {
    ShardServerOptions so;
    so.dir = dir;
    so.shard = static_cast<int>(i);
    so.port = 0;
    auto server = ShardServer::Start(so);
    if (!server.ok()) return Fail(server.status());
    if (i != 0) spec += ',';
    spec += "127.0.0.1:" + std::to_string((*server)->port());
    servers.push_back(std::move(*server));
  }
  auto endpoints = ParseEndpointSpec(spec);
  if (!endpoints.ok()) return Fail(endpoints.status());
  RemoteRouterOptions options;
  options.replica_sets = std::move(*endpoints);
  options.rpc_deadline_ms = static_cast<std::uint64_t>(rpc_deadline_ms);
  auto router_or = RemoteShardRouter::Connect(options);
  if (!router_or.ok()) return Fail(router_or.status());
  RemoteShardRouter& remote = **router_or;
  std::printf("%zu loopback shard server(s)\n", servers.size());

  // Every bench query traced (sample_every defaults to 1) so the run
  // doubles as the tracing acceptance check: the validation block below
  // demands stitched client+server spans on one normalized timeline in
  // every retained trace.
  TraceCollectorOptions trace_options;
  trace_options.slow_query_ns =
      static_cast<std::uint64_t>(slow_query_ms) * 1000000ull;
  TraceCollector collector(trace_options);
  remote.set_trace_collector(&collector);

  std::vector<NodeId> active = ActiveUsers(m);
  if (active.empty()) return 1;
  // Each remote gain is one fan-out (num_shards round trips in flight);
  // cap the sweep so the bench stays seconds, not minutes, on big
  // corpora.
  constexpr std::size_t kMaxSweep = 4096;
  if (active.size() > kMaxSweep) active.resize(kMaxSweep);

  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  // Routed gains, local vs remote, bit-compared per node.
  LatencyHistogram local_hist;
  LatencyHistogram remote_hist;
  std::vector<double> local_gain(active.size(), 0.0);
  WallTimer timer;
  WallTimer query_timer;
  for (std::size_t i = 0; i < active.size(); ++i) {
    query_timer.Reset();
    local_gain[i] = local.MarginalGain(active[i]);
    local_hist.Record(query_timer.ElapsedSeconds() * 1e9);
  }
  const double local_ns =
      timer.ElapsedSeconds() * 1e9 / static_cast<double>(active.size());
  timer.Reset();
  std::size_t gain_mismatches = 0;
  for (std::size_t i = 0; i < active.size(); ++i) {
    query_timer.Reset();
    collector.StartTrace(kSpanQueryGain, active[i]);
    auto gain = remote.MarginalGain(active[i]);
    collector.EndTrace();
    remote_hist.Record(query_timer.ElapsedSeconds() * 1e9);
    if (!gain.ok()) return Fail(gain.status());
    if (!same_bits(*gain, local_gain[i])) ++gain_mismatches;
  }
  const double remote_ns =
      timer.ElapsedSeconds() * 1e9 / static_cast<double>(active.size());
  std::printf("routed gain over %zu active users: local %.3f us/query, "
              "remote %.3f us/query (%.2fx)\n",
              active.size(), local_ns / 1e3, remote_ns / 1e3,
              local_ns > 0 ? remote_ns / local_ns : 0.0);
  PrintPercentiles("net_gain_local", local_hist);
  PrintPercentiles("net_gain_remote", remote_hist);
  if (gain_mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu of %zu remote gains differ from the "
                 "in-process router\n", gain_mismatches, active.size());
    return 1;
  }
  records.push_back(
      WithPercentiles({"net_gain_local", local_ns, 0, 1}, local_hist));
  records.push_back(
      WithPercentiles({"net_gain_remote", remote_ns, 0, 1}, remote_hist));

  // Topk, remote timed over `samples` runs, first run bit-compared
  // against the in-process selection (seeds, gains, spreads, and the
  // evaluation count — the full determinism contract).
  const SnapshotSeedSelection local_sel =
      local.TopKSeeds(static_cast<NodeId>(k));
  LatencyHistogram topk_hist;
  SnapshotSeedSelection remote_sel;
  for (std::size_t sample = 0; sample < samples; ++sample) {
    query_timer.Reset();
    collector.StartTrace(kSpanQueryTopk, static_cast<std::uint64_t>(k));
    auto current = remote.TopKSeeds(static_cast<NodeId>(k));
    collector.EndTrace();
    topk_hist.Record(query_timer.ElapsedSeconds() * 1e9);
    if (!current.ok()) return Fail(current.status());
    if (sample == 0) remote_sel = std::move(*current);
  }
  bool topk_identical =
      remote_sel.seeds == local_sel.seeds &&
      remote_sel.gain_evaluations == local_sel.gain_evaluations &&
      remote_sel.marginal_gains.size() == local_sel.marginal_gains.size();
  if (topk_identical) {
    for (std::size_t i = 0; i < local_sel.seeds.size(); ++i) {
      topk_identical =
          topk_identical &&
          same_bits(remote_sel.marginal_gains[i],
                    local_sel.marginal_gains[i]) &&
          same_bits(remote_sel.cumulative_spread[i],
                    local_sel.cumulative_spread[i]);
    }
  }
  std::printf("topk(%d): %zu seeds, %llu gain evaluations, remote %s the "
              "in-process router\n",
              k, remote_sel.seeds.size(),
              static_cast<unsigned long long>(remote_sel.gain_evaluations),
              topk_identical ? "bit-identical to" : "DIVERGES from");
  PrintPercentiles("net_topk_remote", topk_hist);
  if (!topk_identical) {
    std::fprintf(stderr, "FAIL: remote topk diverges from the in-process "
                 "router\n");
    return 1;
  }
  records.push_back(WithPercentiles(
      {"net_topk_remote", topk_hist.Percentile(50.0), 0, 1}, topk_hist));

  // Tracing acceptance check (docs/tracing.md): every retained trace
  // must carry client net.rpc spans AND re-anchored server spans, every
  // remote span must land inside its enclosing RPC's client-side
  // envelope, and one hop's fold spans must sum to no more than that
  // envelope. A broken clock re-anchoring or span stitch fails the
  // bench, not just a log line.
  {
    constexpr std::uint64_t kSlackNs = 1000;  // integer-midpoint rounding
    std::size_t checked = 0;
    std::size_t bad = 0;
    for (const TraceRecord& trace : collector.Traces()) {
      ++checked;
      std::map<std::uint64_t, const TraceSpan*> by_id;
      for (const TraceSpan& s : trace.spans) by_id[s.span_id] = &s;
      const auto enclosing_rpc =
          [&by_id](const TraceSpan& s) -> const TraceSpan* {
        const TraceSpan* cur = &s;
        for (int depth = 0; depth < 8 && cur != nullptr; ++depth) {
          if (cur->rec.name_id == kSpanNetRpc) return cur;
          const auto it = by_id.find(cur->parent_span_id);
          cur = it == by_id.end() ? nullptr : it->second;
        }
        return nullptr;
      };
      bool has_rpc = false;
      bool has_remote = false;
      bool well_formed = true;
      std::map<std::uint64_t, std::uint64_t> fold_ns;  // rpc span -> sum
      for (const TraceSpan& s : trace.spans) {
        if (s.rec.name_id == kSpanNetRpc) has_rpc = true;
        if ((s.rec.flags & kSpanFlagRemote) == 0) continue;
        has_remote = true;
        const TraceSpan* rpc = enclosing_rpc(s);
        if (rpc == nullptr) {
          well_formed = false;  // orphaned: lost its net.rpc ancestor
          continue;
        }
        const std::uint64_t lo = rpc->rec.start_ns - kSlackNs;
        const std::uint64_t hi =
            rpc->rec.start_ns + rpc->rec.duration_ns + kSlackNs;
        if (s.rec.start_ns < lo ||
            s.rec.start_ns + s.rec.duration_ns > hi) {
          well_formed = false;  // outside the normalized envelope
        }
        if (s.rec.name_id == kSpanServerFold) {
          fold_ns[rpc->span_id] += s.rec.duration_ns;
        }
      }
      for (const auto& [rpc_id, sum] : fold_ns) {
        if (sum > by_id[rpc_id]->rec.duration_ns + kSlackNs) {
          well_formed = false;  // folds exceed their RPC envelope
        }
      }
      if (!has_rpc || !has_remote || !well_formed) ++bad;
    }
    std::printf("traces: %zu retained, %zu with client+server spans "
                "stitched inside the RPC envelope\n",
                checked, checked - bad);
    if (kObsEnabled && (bad != 0 || checked == 0)) {
      std::fprintf(stderr,
                   "FAIL: %zu of %zu traces missing client/server spans or "
                   "breaking the normalized-timeline envelope\n",
                   bad, checked);
      return 1;
    }
  }

  // Client-side RPC counters for the archived record: the trajectory
  // catches a config that silently started retrying or failing over.
  {
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    records.push_back(CounterRecord(snap, "net.rpc.count"));
    records.push_back(CounterRecord(snap, "net.rpc.errors"));
    records.push_back(CounterRecord(snap, "net.failovers"));
    records.push_back(CounterRecord(snap, "net.reconnects"));
    // trace.* records ride along for the archive; bench_compare.py
    // skips them (no latency semantics to regress).
    records.push_back(CounterRecord(snap, "trace.count"));
    records.push_back(CounterRecord(snap, "trace.spans"));
    records.push_back(CounterRecord(snap, "trace.spans.remote"));
  }

  int rc = 0;
  if (!json_path.empty()) rc = WriteBenchJson(json_path, records);
  if (!trace_json.empty()) {
    if (Status st = collector.WriteTraceJson(trace_json); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      rc = 1;
    } else {
      std::printf("trace JSON: %s\n", trace_json.c_str());
    }
  }
  rc |= dump.DumpAll();
  return rc;
}

int Main(int argc, char** argv) {
  std::string dir;
  std::string snapshot_path;
  std::string graph_path;
  std::string log_path;
  std::string credit_name = "equal";
  std::string json_path;
  std::string metrics_json;
  std::string metrics_prom;
  double lambda = 0.001;
  int shards = 4;
  int generation = 1;
  int k = 50;
  int threads = 1;
  int samples = 3;
  int poll_ms = 500;
  int max_sessions = 64;
  int rpc_deadline_ms = 0;
  int slow_query_ms = 0;
  int fleet_port = -1;
  std::string trace_json;
  bool split = false;
  bool build = false;
  bool ingest = false;
  bool watch = false;
  bool bench = false;
  bool bench_net = false;
  bool recover = false;
  std::string connect_spec;
  std::string failpoints_spec;
  FlagParser flags;
  flags.AddString("dir", &dir, "sharded generation directory");
  flags.AddString("snapshot", &snapshot_path,
                  "monolithic snapshot to --split");
  flags.AddString("graph", &graph_path, "graph file (.tsv or .bin)");
  flags.AddString("log", &log_path, "action log file (.tsv or .bin)");
  flags.AddString("credit", &credit_name, "equal | timedecay");
  flags.AddDouble("lambda", &lambda, "CD truncation threshold (--build)");
  flags.AddInt("shards", &shards, "target shard count for --split");
  flags.AddInt("generation", &generation, "generation number for --split");
  flags.AddInt("k", &k, "seeds for --bench topk");
  flags.AddInt("threads", &threads, "--bench: concurrent serving sessions");
  flags.AddInt("samples", &samples, "--bench: topk latency samples");
  flags.AddInt("poll_ms", &poll_ms, "--watch: log poll interval");
  flags.AddInt("max_sessions", &max_sessions,
               "generation-manager session-table size (a --bench run pins "
               "--threads + 1 sessions)");
  flags.AddInt("rpc_deadline_ms", &rpc_deadline_ms,
               "--connect/--bench_net: per-RPC deadline, propagated in "
               "every frame (0 = none)");
  flags.AddInt("slow_query_ms", &slow_query_ms,
               "--connect/--bench_net: slow-query threshold for the trace "
               "slow ring (0 = keep the N slowest regardless — "
               "docs/tracing.md)");
  flags.AddInt("fleet_port", &fleet_port,
               "--connect: serve a fleet-merged Prometheus /metrics on "
               "this loopback port, federating every replica's endpoint "
               "(0 = ephemeral, <0 disables — docs/observability.md)");
  flags.AddString("trace_json", &trace_json,
                  "--connect/--bench_net: write Chrome trace-event JSON of "
                  "every retained trace here at exit (Perfetto-loadable)");
  flags.AddString("connect", &connect_spec,
                  "serve remotely from shard_server processes: "
                  "\"host:port[|replica...][,slot...]\" in range order");
  flags.AddString("json", &json_path,
                  "--bench: write machine-readable results here");
  flags.AddString("metrics_json", &metrics_json,
                  "dump the metrics registry here (bench-json records; "
                  "refreshed by `metrics` and at exit)");
  flags.AddString("metrics_prom", &metrics_prom,
                  "dump the registry here as Prometheus text");
  flags.AddBool("split", &split, "partition a snapshot into shards");
  flags.AddBool("build", &build, "--split from graph+log instead of a file");
  flags.AddBool("ingest", &ingest, "one-shot: ingest the log and exit");
  flags.AddBool("watch", &watch, "serve + tail the log into generations");
  flags.AddBool("bench", &bench, "report query latency");
  flags.AddBool("bench_net", &bench_net,
                "loopback net bench: in-process shard servers vs the local "
                "router, bit-identity checked (docs/networking.md)");
  flags.AddBool("recover", &recover,
                "run crash recovery on --dir before opening "
                "(docs/durability.md)");
  flags.AddString("failpoints", &failpoints_spec,
                  "arm failpoints: name=spec;... (needs an "
                  "INFLUMAX_FAILPOINTS build)");
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (dir.empty() && connect_spec.empty()) {
    std::fprintf(stderr, "--dir is required (or --connect for remote "
                 "serving)\n");
    return 1;
  }
  if (shards < 1 || generation < 1 || threads < 1 || samples < 1 ||
      poll_ms < 1 || max_sessions < 1 ||
      rpc_deadline_ms < 0 || slow_query_ms < 0) {
    std::fprintf(stderr,
                 "--shards, --generation, --threads, --samples, --poll_ms, "
                 "and --max_sessions must be >= 1; --rpc_deadline_ms and "
                 "--slow_query_ms must be >= 0\n%s",
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  // A --bench run pins threads + 1 sessions (the stripes plus the main
  // session). Refuse up front rather than silently growing the table —
  // the operator sized --max_sessions deliberately, and overshooting it
  // at runtime would CHECK-abort inside the manager.
  if (bench && static_cast<std::size_t>(threads) + 1 >
                   static_cast<std::size_t>(max_sessions)) {
    std::fprintf(stderr,
                 "--bench with --threads=%d pins %d sessions but "
                 "--max_sessions=%d allows fewer; raise --max_sessions\n%s",
                 threads, threads + 1, max_sessions,
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  // Arm failpoints before anything touches --dir so injected faults cover
  // --split and the recovery scan itself. A non-failpoint build refuses
  // loudly rather than silently serving a healthy binary under a chaos
  // harness.
  if (!failpoints_spec.empty()) {
    if (Status status = ArmFailpointsFromSpec(failpoints_spec); !status.ok()) {
      return Fail(status);
    }
  }
  if (!connect_spec.empty()) {
    return RunConnect(connect_spec, rpc_deadline_ms, slow_query_ms,
                      fleet_port, trace_json,
                      MetricsDump{metrics_json, metrics_prom});
  }
  if (split) {
    if (build ? (graph_path.empty() || log_path.empty())
              : snapshot_path.empty()) {
      std::fprintf(stderr,
                   "--split needs --snapshot, or --build with --graph and "
                   "--log\n");
      return 1;
    }
    return RunSplit(snapshot_path, build, graph_path, log_path, credit_name,
                    lambda, dir, static_cast<std::size_t>(shards),
                    static_cast<std::uint64_t>(generation));
  }

  if (recover) {
    auto report = RecoverGenerationDir(dir);
    if (!report.ok()) return Fail(report.status());
    PrintRecoveryReport(*report);
  }

  auto manager = GenerationManager::Open(
      dir, static_cast<std::size_t>(max_sessions));
  if (!manager.ok()) return Fail(manager.status());
  if (ingest) {
    if (graph_path.empty() || log_path.empty()) {
      std::fprintf(stderr, "--ingest needs --graph and --log\n");
      return 1;
    }
    return RunIngest(**manager, graph_path, log_path, credit_name);
  }
  const MetricsDump dump{metrics_json, metrics_prom};
  if (bench_net) {
    return RunBenchNet(**manager, dir, k, static_cast<std::size_t>(samples),
                       rpc_deadline_ms, slow_query_ms, trace_json, json_path,
                       dump);
  }
  if (bench) {
    return RunBench(**manager, static_cast<std::size_t>(threads), k,
                    static_cast<std::size_t>(samples), graph_path, log_path,
                    credit_name, json_path, dump);
  }

  // --watch: the background ingestion loop reloads the log file every
  // poll and swaps a new generation in; the REPL session keeps serving
  // its pinned generation until `refresh`.
  Graph watch_graph;
  Result<CreditChoice> watch_credit = CreditChoice{};
  if (watch) {
    if (graph_path.empty() || log_path.empty()) {
      std::fprintf(stderr, "--watch needs --graph and --log\n");
      return 1;
    }
    auto graph = LoadGraph(graph_path);
    if (!graph.ok()) return Fail(graph.status());
    watch_graph = std::move(graph).value();
    auto log = LoadLog(log_path);
    if (!log.ok()) return Fail(log.status());
    watch_credit = MakeCredit(credit_name, watch_graph, *log);
    if (!watch_credit.ok()) return Fail(watch_credit.status());
    auto lambda = CurrentLambda(dir);
    if (!lambda.ok()) return Fail(lambda.status());
    CdConfig config;
    config.truncation_threshold = *lambda;
    // Stat before reparsing: an idle watch tick costs two stat calls,
    // not a full log parse + fingerprint (see StartWatch's contract).
    auto last_size = std::make_shared<std::uintmax_t>(0);
    auto last_mtime = std::make_shared<std::filesystem::file_time_type>();
    const Status watching = (*manager)->StartWatch(
        [log_path, last_size,
         last_mtime]() -> Result<std::optional<ActionLog>> {
          std::error_code ec;
          const std::uintmax_t size =
              std::filesystem::file_size(log_path, ec);
          if (ec) return Status::IoError("cannot stat '" + log_path + "'");
          const auto mtime = std::filesystem::last_write_time(log_path, ec);
          if (ec) return Status::IoError("cannot stat '" + log_path + "'");
          if (size == *last_size && mtime == *last_mtime) {
            return std::optional<ActionLog>();
          }
          auto log = LoadLog(log_path);
          INFLUMAX_RETURN_IF_ERROR(log.status());
          *last_size = size;
          *last_mtime = mtime;
          return std::optional<ActionLog>(std::move(log).value());
        },
        watch_graph, *watch_credit->model, config,
        std::chrono::milliseconds(poll_ms));
    if (!watching.ok()) return Fail(watching);
    std::fprintf(stderr, "watching %s every %d ms\n", log_path.c_str(),
                 poll_ms);
  }
  const int status = RunServe(**manager, dump);
  (*manager)->StopWatch();
  return status;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
