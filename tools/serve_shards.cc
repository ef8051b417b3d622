// Sharded snapshot serving CLI (docs/sharding.md).
//
// Split a credit snapshot (or a freshly scanned graph+log) into an
// action-range sharded generation directory:
//   serve_shards --split --snapshot=d.snap --dir=D --shards=4
//   serve_shards --split --build --graph=g.tsv --log=l.tsv --dir=D \
//       --shards=4 [--lambda=0.001] [--credit=timedecay]
//
// Serve queries from the directory's CURRENT generation (one session,
// queries answered by the gain-merging ShardRouter; bit-identical to the
// monolithic engine):
//   serve_shards --dir=D [--pool_threads=4]
// one query per stdin line:
//   topk K [BUDGET]   CELF greedy seeds across all shards
//   gain X            routed marginal gain (serial shard fold)
//   pgain X           same gain, per-shard terms computed on the pool
//   commit X          commit X in every shard
//   spread X Y Z ...  sigma_cd of the given set
//   reset             rewind every shard session
//   refresh           re-pin the latest generation
//   recover           run crash recovery on the directory, then refresh
//   failpoint list | arm NAME SPEC | disarm NAME | disarm all
//                     fault injection (docs/durability.md; needs an
//                     INFLUMAX_FAILPOINTS build)
//   stats             manifest + session counters + registry totals
//   metrics [prom|spans]  registry scrape (table, Prometheus text, or
//                     the session span ring — docs/observability.md)
//   quit
// --recover runs the same recovery before opening (the restart path);
// --failpoints=name=spec;... arms failpoints at startup and errors
// loudly when the build compiled them out.
// With --metrics_json=<path> / --metrics_prom=<path> the registry is
// dumped to those files after every `metrics` command and at exit.
//
// Tail an appended action log into new generations while serving
// (generation-swap ingestion; the REPL keeps answering from its pinned
// generation until `refresh`):
//   serve_shards --dir=D --watch --graph=g.tsv --log=l.tsv [--poll_ms=500]
// or run one ingest and exit:
//   serve_shards --ingest --dir=D --graph=g.tsv --log=l.tsv
//
// Latency report (per-thread histograms merged with LatencyHistogram::
// Merge, per-shard gain-term p50/p95/p99 in --json):
//   serve_shards --bench --dir=D [--threads=4 --k=50 --json=out.json]
//
// Cross-process serving (docs/networking.md). Connect the same REPL to
// running shard_server processes — one slot per action-range shard in
// range order, '|'-separated replicas per slot:
//   serve_shards --connect="host:p0|host:p0b,host:p1" [--rpc_deadline_ms=N]
// Every --connect query runs under the distributed trace collector
// (docs/tracing.md): `trace` lists the recent + slow rings, `trace ID`
// prints one stitched timeline, `trace json [PATH]` / --trace_json=PATH
// export Perfetto-loadable Chrome trace JSON, --slow_query_ms tunes the
// slow ring's threshold. --fleet_port=N additionally serves one
// fleet-merged Prometheus /metrics federating every replica's endpoint
// (docs/observability.md).
// and a loopback net bench that spins up one in-process ShardServer per
// shard, routes through RemoteShardRouter, checks the answers are
// bit-identical to the in-process ShardRouter, and records remote vs
// local percentiles to --json:
//   serve_shards --bench_net --dir=D [--k=50 --json=out.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
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
#include "graph/graph_io.h"
#include "net/fed_metrics.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "obs/trace.h"
#include "probability/time_params.h"
#include "serve/gain_kernel.h"
#include "serve_common.h"
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

void PrintRecoveryReport(const RecoveryReport& report) {
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

/// `failpoint list|arm NAME SPEC|disarm NAME|disarm all`. Always parsed
/// (the subcommands print FailedPrecondition when the build compiled
/// failpoints out, rather than pretending to inject anything).
void HandleFailpointCommand(std::istringstream& in) {
  std::string verb;
  in >> verb;
  if (verb == "list") {
    const auto names = FailpointCatalog();
    if (!FailpointsCompiledIn()) {
      std::printf("! failpoints are compiled out "
                  "(build with -DINFLUMAX_FAILPOINTS=ON)\n");
    } else if (names.empty()) {
      std::printf("# no failpoints armed or evaluated yet\n");
    }
    for (const std::string& name : names) {
      std::printf("%s\ttrips=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(FailpointTripCount(name)));
    }
  } else if (verb == "arm") {
    std::string name;
    std::string spec_text;
    in >> name >> spec_text;
    if (name.empty() || spec_text.empty()) {
      std::printf("! usage: failpoint arm NAME SPEC (e.g. torn:128@1#2)\n");
      return;
    }
    auto spec = ParseFailpointSpec(spec_text);
    if (!spec.ok()) {
      std::printf("! %s\n", spec.status().ToString().c_str());
      return;
    }
    if (Status status = ArmFailpoint(name, *spec); !status.ok()) {
      std::printf("! %s\n", status.ToString().c_str());
      return;
    }
    std::printf("# armed %s=%s\n", name.c_str(), spec_text.c_str());
  } else if (verb == "disarm") {
    std::string name;
    in >> name;
    if (name.empty()) {
      std::printf("! usage: failpoint disarm NAME|all\n");
      return;
    }
    if (name == "all") {
      DisarmAllFailpoints();
      std::printf("# all failpoints disarmed\n");
    } else {
      DisarmFailpoint(name);
      std::printf("# disarmed %s\n", name.c_str());
    }
  } else {
    std::printf("! usage: failpoint list | arm NAME SPEC | disarm NAME|all\n");
  }
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

void PrintSelection(const SnapshotSeedSelection& selection) {
  for (std::size_t i = 0; i < selection.seeds.size(); ++i) {
    std::printf("%u\t%.6f\t%.6f\n", selection.seeds[i],
                selection.marginal_gains[i], selection.cumulative_spread[i]);
  }
  std::printf("# %zu seeds, %llu gain evaluations\n",
              selection.seeds.size(),
              static_cast<unsigned long long>(selection.gain_evaluations));
}

int RunServe(GenerationManager& manager, WorkerPool* pool,
             GainKernelMode kernel_mode, const MetricsDump& dump) {
  const ServeQueryMetrics& qm = GetServeQueryMetrics();
  SpanRing ring(256);
  GenerationManager::Session session(manager, pool);
  session.router().set_kernel_mode(kernel_mode);
  session.router().set_span_ring(&ring);
  {
    const ShardManifest& m = session.shards().manifest;
    PrintManifest(m, "serving");
    std::fprintf(stderr, "%u users, lambda %g, pool %zu workers, "
                 "kernel %s (%s)\n",
                 m.num_users, m.truncation_threshold,
                 pool == nullptr ? 1 : pool->num_workers(),
                 GainKernelModeName(kernel_mode),
                 GainKernelBackendName(ActiveGainKernelBackend()));
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') continue;
    if (command == "quit" || command == "exit") break;
    ShardRouter& router = session.router();
    if (command == "topk") {
      NodeId k = 0;
      in >> k;
      double budget;  // optional second operand
      if (!(in >> budget)) budget = std::numeric_limits<double>::infinity();
      if (k == 0) {
        std::printf("! usage: topk K [BUDGET]\n");
        std::fflush(stdout);
        continue;
      }
      SnapshotSeedSelection selection;
      {
        ObsSpan span(&ring, kSpanQueryTopk, k, qm.topk);
        selection = router.TopKSeeds(k, budget);
      }
      (router.kernel_mode() == GainKernelMode::kFastMath ? qm.kernel_fast
                                                         : qm.kernel_exact)
          ->Increment();
      PrintSelection(selection);
    } else if (command == "gain" || command == "pgain" ||
               command == "commit") {
      // A failed extraction writes 0, not the sentinel — committing
      // node 0 on a typo would silently poison the session.
      NodeId x = kInvalidNode;
      if (!(in >> x)) {
        std::printf("! usage: %s NODE\n", command.c_str());
        std::fflush(stdout);
        continue;
      }
      if (command == "commit") {
        {
          ObsSpan span(&ring, kSpanQueryCommit, x, qm.commit);
          router.CommitSeed(x);
        }
        std::printf("# %zu session seeds\n", router.session_seeds().size());
      } else {
        double gain = 0.0;
        {
          ObsSpan span(&ring, kSpanQueryGain, x, qm.gain);
          gain = command == "gain" ? router.MarginalGain(x)
                                   : router.MarginalGainParallel(x);
        }
        (router.kernel_mode() == GainKernelMode::kFastMath ? qm.kernel_fast
                                                           : qm.kernel_exact)
            ->Increment();
        std::printf("%.6f\n", gain);
      }
    } else if (command == "spread") {
      std::vector<NodeId> seeds;
      NodeId x;
      while (in >> x) seeds.push_back(x);
      double spread = 0.0;
      {
        ObsSpan span(&ring, kSpanQuerySpread, seeds.size(), qm.spread);
        spread = router.SpreadOf(seeds);
      }
      (router.kernel_mode() == GainKernelMode::kFastMath ? qm.kernel_fast
                                                         : qm.kernel_exact)
          ->Increment();
      std::printf("%.6f\n", spread);
    } else if (command == "reset") {
      {
        ObsSpan span(&ring, kSpanQueryReset, 0, qm.reset);
        router.ResetSession();
      }
      std::printf("# session reset\n");
    } else if (command == "refresh") {
      const bool moved = session.Refresh();
      // A swap builds a fresh router (default kernel, no span ring);
      // re-apply both.
      if (moved) {
        session.router().set_kernel_mode(kernel_mode);
        session.router().set_span_ring(&ring);
      }
      std::printf("# generation %llu%s\n",
                  static_cast<unsigned long long>(session.generation()),
                  moved ? " (swapped)" : " (unchanged)");
    } else if (command == "recover") {
      // Self-healing while serving: sweep the directory, then re-pin —
      // the session keeps answering from its pinned mmaps throughout,
      // even if recovery repointed CURRENT under it.
      auto report = RecoverGenerationDir(manager.dir());
      if (!report.ok()) {
        std::printf("! %s\n", report.status().ToString().c_str());
        std::fflush(stdout);
        continue;
      }
      PrintRecoveryReport(*report);
      if (auto refreshed = manager.RefreshFromDisk(); !refreshed.ok()) {
        std::printf("! refresh after recover: %s\n",
                    refreshed.status().ToString().c_str());
        std::fflush(stdout);
        continue;
      }
      const bool moved = session.Refresh();
      if (moved) {
        session.router().set_kernel_mode(kernel_mode);
        session.router().set_span_ring(&ring);
      }
      std::printf("# generation %llu%s\n",
                  static_cast<unsigned long long>(session.generation()),
                  moved ? " (swapped)" : " (unchanged)");
    } else if (command == "failpoint") {
      HandleFailpointCommand(in);
    } else if (command == "metrics") {
      HandleMetricsCommand(in, ring, dump);
    } else {
      if (command != "stats") {
        std::printf("! unknown command '%s' (topk | gain | pgain | commit | "
                    "spread | reset | refresh | recover | failpoint ... | "
                    "stats | metrics [prom|spans] | quit)\n",
                    command.c_str());
        std::fflush(stdout);
        continue;
      }
      const ShardManifest& m = session.shards().manifest;
      std::uint64_t mapped = 0;
      for (const CreditSnapshotView& view : session.shards().views) {
        mapped += view.ApproxMemoryBytes();
      }
      // Lifecycle counters come from the metrics registry — the same
      // values `metrics` and the Prometheus dump expose — so stats stays
      // one scrape, not a parallel set of ad-hoc counters. Under
      // INFLUMAX_OBS_OFF the scrape is empty and the gauges fall back to
      // what the manager can answer directly.
      const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
      const auto counter_of = [&snap](const char* name) {
        const auto* c = snap.FindCounter(name);
        return c != nullptr ? c->value : 0;
      };
      const auto* retired_gauge = snap.FindGauge("shard.generation.retired");
      const auto* pinned_gauge =
          snap.FindGauge("shard.generation.pinned_sessions");
      const std::uint64_t retired =
          retired_gauge != nullptr
              ? static_cast<std::uint64_t>(retired_gauge->value)
              : manager.retired_generations();
      std::printf(
          "generation=%llu latest=%llu shards=%zu users=%u actions=%u "
          "lambda=%g session_seeds=%zu mapped=%llu router=%llu "
          "retired=%llu pinned_sessions=%lld swaps=%llu ingests=%llu "
          "replayed_tuples=%llu watch_ticks=%llu watch_errors=%llu "
          "ingest_failures=%llu recovery_events=%llu quarantined=%llu "
          "pool_jobs=%llu net_rpc=%llu net_rpc_errors=%llu "
          "net_failovers=%llu net_reconnects=%llu "
          "net_server_requests=%llu net_server_errors=%llu "
          "net_server_rejected=%llu net_server_deadline_exceeded=%llu\n",
          static_cast<unsigned long long>(session.generation()),
          static_cast<unsigned long long>(manager.current_generation()),
          m.num_shards(), m.num_users, m.num_actions,
          m.truncation_threshold, router.session_seeds().size(),
          static_cast<unsigned long long>(mapped),
          static_cast<unsigned long long>(router.ApproxMemoryBytes()),
          static_cast<unsigned long long>(retired),
          pinned_gauge != nullptr ? static_cast<long long>(pinned_gauge->value)
                                  : 1LL,
          static_cast<unsigned long long>(
              counter_of("shard.generation.swaps")),
          static_cast<unsigned long long>(counter_of("shard.ingest.count")),
          static_cast<unsigned long long>(
              counter_of("shard.ingest.replayed_tuples")),
          static_cast<unsigned long long>(counter_of("shard.watch.ticks")),
          static_cast<unsigned long long>(counter_of("shard.watch.errors")),
          static_cast<unsigned long long>(counter_of("gen.ingest_failures")),
          static_cast<unsigned long long>(counter_of("gen.recovery_events")),
          static_cast<unsigned long long>(counter_of("gen.quarantined")),
          static_cast<unsigned long long>(counter_of("pool.jobs")),
          static_cast<unsigned long long>(counter_of("net.rpc.count")),
          static_cast<unsigned long long>(counter_of("net.rpc.errors")),
          static_cast<unsigned long long>(counter_of("net.failovers")),
          static_cast<unsigned long long>(counter_of("net.reconnects")),
          static_cast<unsigned long long>(counter_of("net.server.requests")),
          static_cast<unsigned long long>(counter_of("net.server.errors")),
          static_cast<unsigned long long>(counter_of("net.server.rejected")),
          static_cast<unsigned long long>(
              counter_of("net.server.deadline_exceeded")));
    }
    std::fflush(stdout);
  }
  return dump.DumpAll();
}

/// --bench: routed-gain latency under `threads` concurrent sessions
/// (per-thread LatencyHistograms merged with Merge(), never a shared
/// locked histogram), per-shard gain-term percentiles, and routed topk.
int RunBench(GenerationManager& manager, std::size_t threads, int k,
             std::size_t samples, GainKernelMode kernel_mode,
             const std::string& json_path, const MetricsDump& dump) {
  std::vector<BenchJsonRecord> records;
  GenerationManager::Session main_session(manager);
  const ShardManifest& m = main_session.shards().manifest;
  PrintManifest(m, "bench");
  std::printf("kernel: %s (backend %s)\n", GainKernelModeName(kernel_mode),
              GainKernelBackendName(ActiveGainKernelBackend()));

  std::vector<NodeId> active;
  for (NodeId x = 0; x < m.num_users; ++x) {
    if (m.au[x] != 0) active.push_back(x);
  }
  if (active.empty()) {
    std::fprintf(stderr, "no active users, nothing to bench\n");
    return 1;
  }

  const auto print_hist = [](const char* label,
                             const LatencyHistogram& hist) {
    std::printf("  %s: p50 %.3f us, p95 %.3f us, p99 %.3f us (%llu "
                "samples)\n",
                label, hist.Percentile(50.0) / 1e3,
                hist.Percentile(95.0) / 1e3, hist.Percentile(99.0) / 1e3,
                static_cast<unsigned long long>(hist.count()));
  };

  // Routed gains, `threads` sessions each working a stripe of the active
  // users; per-thread digests merged at the end (Merge is
  // order-independent, so the merged percentiles are deterministic). Run
  // in both kernel modes so the archived trajectory keeps exact and
  // fast_math numbers apart; --kernel picks the headline record and the
  // mode the per-shard + topk sections below run in.
  std::vector<std::unique_ptr<GenerationManager::Session>> sessions;
  for (std::size_t t = 0; t < threads; ++t) {
    sessions.push_back(
        std::make_unique<GenerationManager::Session>(manager));
  }
  struct RoutedPhase {
    LatencyHistogram hist;
    double ns_per_query = 0.0;
    double checksum = 0.0;
  };
  const auto run_routed_phase = [&](GainKernelMode mode) {
    RoutedPhase phase;
    std::vector<LatencyHistogram> gain_hist(threads);
    std::vector<double> partial(threads, 0.0);
    for (auto& session : sessions) {
      session->router().set_kernel_mode(mode);
    }
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
    phase.ns_per_query =
        timer.ElapsedSeconds() * 1e9 / static_cast<double>(active.size());
    for (std::size_t t = 0; t < threads; ++t) {
      phase.hist.Merge(gain_hist[t]);
      phase.checksum += partial[t];
    }
    return phase;
  };
  const RoutedPhase exact_phase = run_routed_phase(GainKernelMode::kExact);
  const RoutedPhase fast_phase = run_routed_phase(GainKernelMode::kFastMath);
  const RoutedPhase& selected = kernel_mode == GainKernelMode::kFastMath
                                    ? fast_phase
                                    : exact_phase;
  std::printf("routed gain: %.3f us/query over %zu active users x %zu "
              "sessions (checksum %.3f)\n",
              selected.ns_per_query / 1e3, active.size(), threads,
              selected.checksum);
  std::printf("  exact %.3f us/query, fast %.3f us/query (%.2fx)\n",
              exact_phase.ns_per_query / 1e3, fast_phase.ns_per_query / 1e3,
              fast_phase.ns_per_query > 0
                  ? exact_phase.ns_per_query / fast_phase.ns_per_query
                  : 0.0);
  print_hist("routed_gain_exact", exact_phase.hist);
  print_hist("routed_gain_fast", fast_phase.hist);
  BenchJsonRecord routed_record = WithPercentiles(
      {"shard_gain_routed", selected.ns_per_query, 0, threads},
      selected.hist);
  routed_record.mode = GainKernelModeName(kernel_mode);
  records.push_back(std::move(routed_record));
  BenchJsonRecord routed_exact = WithPercentiles(
      {"shard_gain_routed_exact", exact_phase.ns_per_query, 0, threads},
      exact_phase.hist);
  routed_exact.mode = GainKernelModeName(GainKernelMode::kExact);
  records.push_back(std::move(routed_exact));
  BenchJsonRecord routed_fast = WithPercentiles(
      {"shard_gain_routed_fast", fast_phase.ns_per_query, 0, threads},
      fast_phase.hist);
  routed_fast.mode = GainKernelModeName(GainKernelMode::kFastMath);
  records.push_back(std::move(routed_fast));

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
      sink += engine.AccumulateGainTerms(x, 0.0);
      hist.Record(query_timer.ElapsedSeconds() * 1e9);
    }
    char label[48];
    std::snprintf(label, sizeof(label), "shard%zu_gain_terms", i);
    std::printf("shard %zu [%u,%u): checksum %.3f\n", i, m.range_begin[i],
                m.range_begin[i + 1], sink);
    print_hist(label, hist);
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
  std::printf("topk(%d): %llu gain evaluations, router %s\n", k,
              static_cast<unsigned long long>(selection.gain_evaluations),
              FormatBytes(router.ApproxMemoryBytes()).c_str());
  print_hist("shard_topk", topk_hist);
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
    const auto counter_record = [&snap](const char* name) {
      const auto* counter = snap.FindCounter(name);
      BenchJsonRecord record{name, 0.0, 0, 1};
      record.has_value = true;
      record.value =
          counter != nullptr ? static_cast<double>(counter->value) : 0.0;
      return record;
    };
    records.push_back(counter_record("gen.ingest_failures"));
    records.push_back(counter_record("gen.recovery_events"));
  }

  int rc = 0;
  if (!json_path.empty()) rc = WriteBenchJson(json_path, records);
  rc |= dump.DumpAll();
  return rc;
}

/// One line per retained trace: id, root name, duration, span counts,
/// failover/fetch attribution (the `trace` REPL command).
void PrintTraceLine(const TraceRecord& t) {
  std::printf("  %016llx %-14s %10.3f ms  spans=%zu remote=%u failovers=%u "
              "fetches=%u detail=%llu\n",
              static_cast<unsigned long long>(t.trace_id),
              SpanNameString(t.root_name_id),
              static_cast<double>(t.duration_ns) / 1e6, t.spans.size(),
              t.remote_spans, t.failovers, t.fetches,
              static_cast<unsigned long long>(t.detail));
}

/// `trace` REPL command (--connect, docs/tracing.md): no operand lists
/// the recent and slow rings; `trace json [PATH]` exports Chrome
/// trace-event JSON (stdout when PATH is omitted); any other operand is
/// a hex trace id, printed span by span on the stitched timeline.
void HandleTraceCommand(std::istringstream& in,
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
    } else if (Status st = collector.WriteTraceJson(path); !st.ok()) {
      std::printf("! %s\n", st.ToString().c_str());
    } else {
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

/// --connect: the serving REPL over RemoteShardRouter — same query
/// vocabulary as RunServe, answered by shard_server processes. Every
/// query runs under the trace collector (docs/tracing.md); `trace`
/// inspects the stitched results. `probe` pings every replica of every
/// slot; `stats` adds the client-side net.rpc.* counters. With
/// --fleet_port the process also serves one fleet-merged Prometheus
/// endpoint federating every replica's /metrics.
int RunConnect(const std::string& spec, GainKernelMode kernel_mode,
               int rpc_deadline_ms, int slow_query_ms, int fleet_port,
               const std::string& trace_json, const MetricsDump& dump) {
  auto endpoints = ParseEndpointSpec(spec);
  if (!endpoints.ok()) return Fail(endpoints.status());
  RemoteRouterOptions options;
  options.replica_sets = *endpoints;  // fleet discovery reuses the hosts
  options.kernel_mode = kernel_mode;
  options.rpc_deadline_ms = static_cast<std::uint64_t>(rpc_deadline_ms);
  auto router_or = RemoteShardRouter::Connect(options);
  if (!router_or.ok()) return Fail(router_or.status());
  RemoteShardRouter& router = **router_or;
  std::fprintf(stderr,
               "connected: generation %llu, %u users, %u actions over %zu "
               "range slot(s), kernel %s\n",
               static_cast<unsigned long long>(router.generation()),
               router.num_users(), router.num_actions(), router.num_slots(),
               GainKernelModeName(kernel_mode));

  TraceCollectorOptions trace_options;
  trace_options.slow_query_ns =
      static_cast<std::uint64_t>(slow_query_ms) * 1000000ull;
  TraceCollector collector(trace_options);
  router.set_trace_collector(&collector);

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
  SpanRing ring(256);  // metrics-dump plumbing; traces carry the spans
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty() || command[0] == '#') continue;
    if (command == "quit" || command == "exit") break;
    if (command == "topk") {
      NodeId k = 0;
      in >> k;
      double budget;
      if (!(in >> budget)) budget = std::numeric_limits<double>::infinity();
      if (k == 0) {
        std::printf("! usage: topk K [BUDGET]\n");
        std::fflush(stdout);
        continue;
      }
      collector.StartTrace(kSpanQueryTopk, k);
      auto selection = router.TopKSeeds(k, budget);
      collector.EndTrace();
      if (!selection.ok()) {
        std::printf("! %s\n", selection.status().ToString().c_str());
      } else {
        PrintSelection(*selection);
      }
    } else if (command == "gain" || command == "commit") {
      NodeId x = kInvalidNode;
      if (!(in >> x)) {
        std::printf("! usage: %s NODE\n", command.c_str());
        std::fflush(stdout);
        continue;
      }
      if (command == "commit") {
        collector.StartTrace(kSpanQueryCommit, x);
        const Status status = router.CommitSeed(x);
        collector.EndTrace();
        if (!status.ok()) {
          std::printf("! %s\n", status.ToString().c_str());
        } else {
          std::printf("# %zu session seeds\n", router.session_seeds().size());
        }
      } else {
        collector.StartTrace(kSpanQueryGain, x);
        auto gain = router.MarginalGain(x);
        collector.EndTrace();
        if (!gain.ok()) {
          std::printf("! %s\n", gain.status().ToString().c_str());
        } else {
          std::printf("%.6f\n", *gain);
        }
      }
    } else if (command == "spread") {
      std::vector<NodeId> seeds;
      NodeId x;
      while (in >> x) seeds.push_back(x);
      collector.StartTrace(kSpanQuerySpread, seeds.size());
      auto spread = router.SpreadOf(seeds);
      collector.EndTrace();
      if (!spread.ok()) {
        std::printf("! %s\n", spread.status().ToString().c_str());
      } else {
        std::printf("%.6f\n", *spread);
      }
    } else if (command == "reset") {
      collector.StartTrace(kSpanQueryReset);
      router.ResetSession();
      collector.EndTrace();
      std::printf("# session reset\n");
    } else if (command == "refresh") {
      auto moved = router.Refresh();
      if (!moved.ok()) {
        std::printf("! %s\n", moved.status().ToString().c_str());
      } else {
        std::printf("# generation %llu%s\n",
                    static_cast<unsigned long long>(router.generation()),
                    *moved ? " (swapped)" : " (unchanged)");
      }
    } else if (command == "probe") {
      for (const ReplicaHealth& h : router.ProbeReplicas()) {
        std::printf("slot %zu replica %zu\t%s\tgeneration=%llu sessions=%u "
                    "metrics_port=%d\n",
                    h.slot, h.replica, h.healthy ? "healthy" : "DOWN",
                    static_cast<unsigned long long>(h.generation),
                    h.sessions_active, h.metrics_port);
      }
    } else if (command == "trace") {
      HandleTraceCommand(in, collector);
    } else if (command == "metrics") {
      HandleMetricsCommand(in, ring, dump);
    } else if (command == "stats") {
      const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
      const auto counter_of = [&snap](const char* name) {
        const auto* c = snap.FindCounter(name);
        return c != nullptr ? c->value : 0;
      };
      std::printf(
          "generation=%llu slots=%zu users=%u actions=%u session_seeds=%zu "
          "net_rpc=%llu net_rpc_errors=%llu net_rpc_retries=%llu "
          "net_failovers=%llu net_reconnects=%llu net_commit_replays=%llu "
          "net_server_requests=%llu net_server_errors=%llu "
          "net_server_rejected=%llu net_server_deadline_exceeded=%llu "
          "trace_count=%llu trace_slow=%llu trace_fetches=%llu\n",
          static_cast<unsigned long long>(router.generation()),
          router.num_slots(), router.num_users(), router.num_actions(),
          router.session_seeds().size(),
          static_cast<unsigned long long>(counter_of("net.rpc.count")),
          static_cast<unsigned long long>(counter_of("net.rpc.errors")),
          static_cast<unsigned long long>(counter_of("net.rpc.retries")),
          static_cast<unsigned long long>(counter_of("net.failovers")),
          static_cast<unsigned long long>(counter_of("net.reconnects")),
          static_cast<unsigned long long>(counter_of("net.commit_replays")),
          static_cast<unsigned long long>(counter_of("net.server.requests")),
          static_cast<unsigned long long>(counter_of("net.server.errors")),
          static_cast<unsigned long long>(counter_of("net.server.rejected")),
          static_cast<unsigned long long>(
              counter_of("net.server.deadline_exceeded")),
          static_cast<unsigned long long>(counter_of("trace.count")),
          static_cast<unsigned long long>(counter_of("trace.slow")),
          static_cast<unsigned long long>(counter_of("trace.fetches")));
    } else {
      std::printf("! unknown command '%s' (topk | gain | commit | spread | "
                  "reset | refresh | probe | trace [ID|json [PATH]] | stats "
                  "| metrics [prom] | quit)\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }
  int rc = dump.DumpAll();
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
                std::size_t samples, GainKernelMode kernel_mode,
                int rpc_deadline_ms, int slow_query_ms,
                const std::string& trace_json, const std::string& json_path,
                const MetricsDump& dump) {
  std::vector<BenchJsonRecord> records;
  GenerationManager::Session local_session(manager);
  local_session.router().set_kernel_mode(kernel_mode);
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
  options.kernel_mode = kernel_mode;
  options.rpc_deadline_ms = static_cast<std::uint64_t>(rpc_deadline_ms);
  auto router_or = RemoteShardRouter::Connect(options);
  if (!router_or.ok()) return Fail(router_or.status());
  RemoteShardRouter& remote = **router_or;
  std::printf("%zu loopback shard server(s), kernel %s\n", servers.size(),
              GainKernelModeName(kernel_mode));

  // Every bench query traced (sample_every defaults to 1) so the run
  // doubles as the tracing acceptance check: the validation block below
  // demands stitched client+server spans on one normalized timeline in
  // every retained trace.
  TraceCollectorOptions trace_options;
  trace_options.slow_query_ns =
      static_cast<std::uint64_t>(slow_query_ms) * 1000000ull;
  TraceCollector collector(trace_options);
  remote.set_trace_collector(&collector);

  std::vector<NodeId> active;
  for (NodeId x = 0; x < m.num_users; ++x) {
    if (m.au[x] != 0) active.push_back(x);
  }
  if (active.empty()) {
    std::fprintf(stderr, "no active users, nothing to bench\n");
    return 1;
  }
  // Each remote gain is one fan-out (num_shards round trips in flight);
  // cap the sweep so the bench stays seconds, not minutes, on big
  // corpora.
  constexpr std::size_t kMaxSweep = 4096;
  if (active.size() > kMaxSweep) active.resize(kMaxSweep);

  const auto print_hist = [](const char* label,
                             const LatencyHistogram& hist) {
    std::printf("  %s: p50 %.3f us, p95 %.3f us, p99 %.3f us (%llu "
                "samples)\n",
                label, hist.Percentile(50.0) / 1e3,
                hist.Percentile(95.0) / 1e3, hist.Percentile(99.0) / 1e3,
                static_cast<unsigned long long>(hist.count()));
  };
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
  print_hist("net_gain_local", local_hist);
  print_hist("net_gain_remote", remote_hist);
  if (gain_mismatches != 0) {
    std::fprintf(stderr, "FAIL: %zu of %zu remote gains differ from the "
                 "in-process router\n", gain_mismatches, active.size());
    return 1;
  }
  BenchJsonRecord local_record =
      WithPercentiles({"net_gain_local", local_ns, 0, 1}, local_hist);
  local_record.mode = GainKernelModeName(kernel_mode);
  records.push_back(std::move(local_record));
  BenchJsonRecord remote_record =
      WithPercentiles({"net_gain_remote", remote_ns, 0, 1}, remote_hist);
  remote_record.mode = GainKernelModeName(kernel_mode);
  records.push_back(std::move(remote_record));

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
  print_hist("net_topk_remote", topk_hist);
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
    const auto counter_record = [&snap](const char* name) {
      const auto* counter = snap.FindCounter(name);
      BenchJsonRecord record{name, 0.0, 0, 1};
      record.has_value = true;
      record.value =
          counter != nullptr ? static_cast<double>(counter->value) : 0.0;
      return record;
    };
    records.push_back(counter_record("net.rpc.count"));
    records.push_back(counter_record("net.rpc.errors"));
    records.push_back(counter_record("net.failovers"));
    records.push_back(counter_record("net.reconnects"));
    // trace.* records ride along for the archive; bench_compare.py
    // skips them (no latency semantics to regress).
    records.push_back(counter_record("trace.count"));
    records.push_back(counter_record("trace.spans"));
    records.push_back(counter_record("trace.spans.remote"));
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
  std::string kernel_name = "exact";
  std::string json_path;
  std::string metrics_json;
  std::string metrics_prom;
  double lambda = 0.001;
  int shards = 4;
  int generation = 1;
  int k = 50;
  int pool_threads = 0;
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
  flags.AddString("kernel", &kernel_name,
                  "gain kernel: exact (bit-identical fold) | fast "
                  "(vectorized, bounded error)");
  flags.AddDouble("lambda", &lambda, "CD truncation threshold (--build)");
  flags.AddInt("shards", &shards, "target shard count for --split");
  flags.AddInt("generation", &generation, "generation number for --split");
  flags.AddInt("k", &k, "seeds for --bench topk");
  flags.AddInt("pool_threads", &pool_threads,
               "serve: persistent WorkerPool size (0 = all hardware)");
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
      poll_ms < 1 || pool_threads < 0 || max_sessions < 1 ||
      rpc_deadline_ms < 0 || slow_query_ms < 0) {
    std::fprintf(stderr,
                 "--shards, --generation, --threads, --samples, --poll_ms, "
                 "and --max_sessions must be >= 1; --pool_threads, "
                 "--rpc_deadline_ms, and --slow_query_ms must be >= 0\n%s",
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
  const auto kernel_mode = ParseGainKernelMode(kernel_name);
  if (!kernel_mode.ok()) {
    std::fprintf(stderr, "%s\n%s", kernel_mode.status().ToString().c_str(),
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
    return RunConnect(connect_spec, *kernel_mode, rpc_deadline_ms,
                      slow_query_ms, fleet_port, trace_json,
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
                       *kernel_mode, rpc_deadline_ms, slow_query_ms,
                       trace_json, json_path, dump);
  }
  if (bench) {
    return RunBench(**manager, static_cast<std::size_t>(threads), k,
                    static_cast<std::size_t>(samples), *kernel_mode,
                    json_path, dump);
  }

  std::unique_ptr<WorkerPool> pool;
  if (pool_threads != 1) {
    pool = std::make_unique<WorkerPool>(
        static_cast<std::size_t>(pool_threads));
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
    (*manager)->StartWatch(
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
    std::fprintf(stderr, "watching %s every %d ms\n", log_path.c_str(),
                 poll_ms);
  }
  const int status = RunServe(**manager, pool.get(), *kernel_mode, dump);
  (*manager)->StopWatch();
  return status;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
