// Snapshot-serving CLI for the credit-distribution model.
//
// Freeze a scanned model into a snapshot:
//   serve_credit --build --graph=d.graph.tsv --log=d.log.tsv \
//       --snapshot=d.snap [--lambda=0.001] [--credit=timedecay]
//
// Serve queries from a snapshot (no graph, no log, no rebuild — the
// query path runs entirely over the mmap'd arrays):
//   serve_credit --snapshot=d.snap
// then one query per stdin line:
//   topk K [BUDGET]   CELF greedy seeds (optionally spread-budgeted)
//   gain X            marginal gain of node X vs the session seed set
//   commit X          add X to the session seed set
//   spread X Y Z ...  sigma_cd of the given set (session keeps it)
//   reset             rewind the session to the snapshot base
//   stats             snapshot + engine counters
//   metrics [prom|spans]  registry scrape (table, Prometheus text, or
//                     the session span ring — docs/observability.md)
//   quit
// With --metrics_json=<path> / --metrics_prom=<path> the registry is
// dumped to those files after every `metrics` command and at exit.
//
// Replay appended log records onto an existing snapshot:
//   serve_credit --rescan --graph=... --log=extended.tsv \
//       --snapshot=old.snap --out=new.snap [--lambda=...]
//
// Latency report (load time, gain/topk latency, vs full rebuild; with
// --serve_threads=N additionally the concurrent-serving section: N
// engines over the shared view, cold vs warm against the epoch-published
// gain cache; --json=out.json writes the machine-readable results):
//   serve_credit --bench --snapshot=d.snap [--graph=... --log=...] \
//       [--serve_threads=8] [--json=bench.json]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "actionlog/log_io.h"
#include "common/bench_json.h"
#include "common/concurrent_flat_hash.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "graph/graph_io.h"
#include "probability/time_params.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "serve_common.h"

namespace influmax {
namespace {

using BenchRecord = BenchJsonRecord;

int RunBuild(const std::string& graph_path, const std::string& log_path,
             const std::string& snapshot_path, const std::string& credit_name,
             double lambda) {
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
  const double scan_seconds = timer.ElapsedSeconds();

  timer.Reset();
  if (Status status = model->WriteSnapshot(snapshot_path); !status.ok()) {
    return Fail(status);
  }
  auto view = CreditSnapshotView::Open(snapshot_path);
  if (!view.ok()) return Fail(view.status());
  std::fprintf(stderr,
               "built %s: %llu entries over %u actions, scan %.2fs, "
               "freeze %.2fs, file %s\n",
               snapshot_path.c_str(),
               static_cast<unsigned long long>(view->num_entries()),
               view->num_actions(), scan_seconds, timer.ElapsedSeconds(),
               FormatBytes(view->ApproxMemoryBytes()).c_str());
  return 0;
}

int RunRescan(const std::string& graph_path, const std::string& log_path,
              const std::string& snapshot_path, const std::string& out_path,
              const std::string& credit_name, double lambda) {
  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto log = LoadLog(log_path);
  if (!log.ok()) return Fail(log.status());
  auto credit = MakeCredit(credit_name, *graph, *log);
  if (!credit.ok()) return Fail(credit.status());
  auto view = CreditSnapshotView::Open(snapshot_path);
  if (!view.ok()) return Fail(view.status());

  WallTimer timer;
  CdConfig config;
  config.truncation_threshold = lambda;
  RescanStats stats;
  if (Status status = IncrementalRescan(*view, *graph, *log, *credit->model,
                                        config, out_path, &stats);
      !status.ok()) {
    return Fail(status);
  }
  std::fprintf(stderr,
               "rescan %s -> %s: %u unchanged, %u extended, %u new "
               "actions, %llu tuples replayed in %.2fs\n",
               snapshot_path.c_str(), out_path.c_str(),
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

int RunServe(const std::string& snapshot_path, std::size_t gain_threads,
             const MetricsDump& dump) {
  WallTimer timer;
  auto view = CreditSnapshotView::Open(snapshot_path);
  if (!view.ok()) return Fail(view.status());
  SnapshotQueryEngine engine(*view);
  engine.set_gain_threads(gain_threads);
  const ServeQueryMetrics& qm = GetServeQueryMetrics();
  SpanRing ring(256);
  std::fprintf(stderr,
               "serving %s: %u users, %u actions, %llu entries, %s mapped, "
               "loaded in %.1fms\n",
               snapshot_path.c_str(), view->num_users(), view->num_actions(),
               static_cast<unsigned long long>(view->num_entries()),
               FormatBytes(view->ApproxMemoryBytes()).c_str(),
               timer.ElapsedSeconds() * 1e3);

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
      double budget;  // optional second operand
      if (!(in >> budget)) budget = std::numeric_limits<double>::infinity();
      if (k == 0) {
        std::printf("! usage: topk K [BUDGET]\n");
        continue;
      }
      SnapshotSeedSelection selection;
      {
        ObsSpan span(&ring, kSpanQueryTopk, k, qm.topk);
        selection = engine.TopKSeeds(k, budget);
      }
      PrintSelection(selection);
    } else if (command == "gain" || command == "commit") {
      // A failed extraction writes 0, not the sentinel — committing
      // node 0 on a typo would silently poison the session.
      NodeId x = kInvalidNode;
      if (!(in >> x)) {
        std::printf("! usage: %s NODE\n", command.c_str());
        std::fflush(stdout);
        continue;
      }
      if (command == "gain") {
        double gain = 0.0;
        {
          ObsSpan span(&ring, kSpanQueryGain, x, qm.gain);
          gain = engine.MarginalGain(x);
        }
        std::printf("%.6f\n", gain);
      } else {
        {
          ObsSpan span(&ring, kSpanQueryCommit, x, qm.commit);
          engine.CommitSeed(x);
        }
        std::printf("# %zu session seeds\n", engine.session_seeds().size());
      }
    } else if (command == "spread") {
      std::vector<NodeId> seeds;
      NodeId x;
      while (in >> x) seeds.push_back(x);
      double spread = 0.0;
      {
        ObsSpan span(&ring, kSpanQuerySpread, seeds.size(), qm.spread);
        spread = engine.SpreadOf(seeds);
      }
      std::printf("%.6f\n", spread);
    } else if (command == "reset") {
      {
        ObsSpan span(&ring, kSpanQueryReset, 0, qm.reset);
        engine.ResetSession();
      }
      std::printf("# session reset\n");
    } else if (command == "metrics") {
      HandleMetricsCommand(in, ring, dump);
    } else if (command == "stats") {
      std::printf(
          "users=%u actions=%u slots=%llu entries=%llu lambda=%g "
          "frozen_seeds=%zu session_seeds=%zu mapped=%llu engine=%llu\n",
          view->num_users(), view->num_actions(),
          static_cast<unsigned long long>(view->num_slots()),
          static_cast<unsigned long long>(view->num_entries()),
          view->truncation_threshold(), view->seeds().size(),
          engine.session_seeds().size(),
          static_cast<unsigned long long>(view->ApproxMemoryBytes()),
          static_cast<unsigned long long>(engine.ApproxMemoryBytes()));
    } else {
      std::printf("! unknown command '%s' (topk | gain | commit | spread | "
                  "reset | stats | metrics [prom|spans] | quit)\n",
                  command.c_str());
    }
    std::fflush(stdout);
  }
  return dump.DumpAll();
}

/// Concurrent-serving section of --bench: `serve_threads` engines share
/// one view; every thread answers base-session marginal gains for its
/// stripe of the active users, first cold (every gain computed), then
/// warm against a ConcurrentFlatHashMap gain cache the main thread
/// filled and epoch-published. The per-thread partial checksums are
/// combined in thread order, so cold and warm must match bit for bit —
/// the cache serves the identical values the engines compute.
int RunServeThreadsBench(const CreditSnapshotView& view,
                         std::size_t serve_threads,
                         std::vector<BenchRecord>* records) {
  std::vector<NodeId> active;
  for (NodeId x = 0; x < view.num_users(); ++x) {
    if (view.au()[x] != 0) active.push_back(x);
  }
  if (active.empty()) return 0;

  std::vector<std::unique_ptr<SnapshotQueryEngine>> engines;
  engines.reserve(serve_threads);
  for (std::size_t t = 0; t < serve_threads; ++t) {
    engines.push_back(std::make_unique<SnapshotQueryEngine>(view));
  }

  ConcurrentFlatHashMap<NodeId, double> cache(serve_threads + 1);
  struct PhaseResult {
    double seconds = 0.0;
    double checksum = 0.0;
    std::uint64_t cache_hits = 0;
    LatencyHistogram latencies;  // per-gain, merged across threads
  };
  const auto run_phase = [&](bool use_cache) {
    PhaseResult result;
    std::vector<double> partial(serve_threads, 0.0);
    std::vector<std::uint64_t> hits(serve_threads, 0);
    std::vector<LatencyHistogram> hist(serve_threads);
    WallTimer timer;
    ParallelForChunked(
        active.size(), serve_threads,
        [&](std::size_t tid, std::size_t begin, std::size_t end) {
          SnapshotQueryEngine& engine = *engines[tid];
          std::optional<ConcurrentFlatHashMap<NodeId, double>::ReadSession>
              session;
          if (use_cache) session.emplace(cache);
          double sum = 0.0;
          WallTimer query_timer;
          for (std::size_t i = begin; i < end; ++i) {
            const NodeId x = active[i];
            double gain = 0.0;
            query_timer.Reset();
            if (session.has_value() && session->Find(x, &gain)) {
              ++hits[tid];
            } else {
              gain = engine.MarginalGain(x);
            }
            hist[tid].Record(query_timer.ElapsedSeconds() * 1e9);
            sum += gain;
          }
          partial[tid] = sum;
        });
    result.seconds = timer.ElapsedSeconds();
    for (std::size_t t = 0; t < serve_threads; ++t) {
      result.checksum += partial[t];
      result.cache_hits += hits[t];
      result.latencies.Merge(hist[t]);
    }
    return result;
  };

  const PhaseResult cold = run_phase(/*use_cache=*/false);

  // Fill and publish the cache from the main thread (the one writer);
  // batched publishes model a producer refreshing the table while the
  // serving threads keep reading whatever epoch they pinned.
  WallTimer fill_timer;
  SnapshotQueryEngine writer_engine(view);
  constexpr std::size_t kPublishBatch = 4096;
  for (std::size_t i = 0; i < active.size(); ++i) {
    cache.InsertOrAssign(active[i], writer_engine.MarginalGain(active[i]));
    if ((i + 1) % kPublishBatch == 0) cache.Publish();
  }
  cache.Publish();
  const double fill_seconds = fill_timer.ElapsedSeconds();

  const PhaseResult warm = run_phase(/*use_cache=*/true);

  const double per_gain_cold_ns = cold.seconds * 1e9 / active.size();
  const double per_gain_warm_ns = warm.seconds * 1e9 / active.size();
  std::printf(
      "serve_threads(%zu): cold %.3f us/gain, warm %.3f us/gain "
      "(%.1fx, %llu/%zu cache hits, fill+publish %.2f ms, %llu versions)\n",
      serve_threads, per_gain_cold_ns / 1e3, per_gain_warm_ns / 1e3,
      per_gain_warm_ns > 0 ? per_gain_cold_ns / per_gain_warm_ns : 0.0,
      static_cast<unsigned long long>(warm.cache_hits), active.size(),
      fill_seconds * 1e3,
      static_cast<unsigned long long>(cache.published_version()));
  PrintPercentiles("serve_gain_cold", cold.latencies, 1e3, "us");
  PrintPercentiles("serve_gain_warm", warm.latencies, 1e3, "us");
  if (cold.checksum != warm.checksum) {
    std::printf("! checksum mismatch: cold %.17g vs warm %.17g\n",
                cold.checksum, warm.checksum);
    return 1;
  }
  records->push_back(WithPercentiles(
      {"serve_gain_cold", per_gain_cold_ns, 0, serve_threads},
      cold.latencies));
  records->push_back(WithPercentiles(
      {"serve_gain_warm", per_gain_warm_ns, 0, serve_threads},
      warm.latencies));
  records->push_back({"gain_cache_fill",
                      fill_seconds * 1e9 / active.size(), 0, 1});
  return 0;
}

int RunBench(const std::string& snapshot_path, const std::string& graph_path,
             const std::string& log_path, const std::string& credit_name,
             int k, std::size_t gain_threads, std::size_t serve_threads,
             std::size_t topk_samples, const std::string& json_path,
             const MetricsDump& dump) {
  std::vector<BenchRecord> records;
  WallTimer timer;
  auto view = CreditSnapshotView::Open(snapshot_path);
  if (!view.ok()) return Fail(view.status());
  const double load_ms = timer.ElapsedSeconds() * 1e3;
  SnapshotQueryEngine engine(*view);
  engine.set_gain_threads(gain_threads);

  // Marginal-gain latency over every active user, every query timed into
  // a histogram (the mean hides tail behavior; serving SLOs are p99s).
  LatencyHistogram gain_hist;
  double sink = 0.0;
  std::uint64_t gains = 0;
  WallTimer query_timer;
  timer.Reset();
  for (NodeId x = 0; x < view->num_users(); ++x) {
    if (view->au()[x] == 0) continue;
    query_timer.Reset();
    sink += engine.MarginalGain(x);
    gain_hist.Record(query_timer.ElapsedSeconds() * 1e9);
    ++gains;
  }
  const double gain_us =
      gains > 0 ? timer.ElapsedSeconds() * 1e6 / static_cast<double>(gains)
                : 0.0;

  // Top-k: `topk_samples` full queries for a latency distribution (cheap
  // next to the per-gain loop above; the first selection is the one the
  // rebuild path is checked against).
  LatencyHistogram topk_hist;
  SnapshotSeedSelection selection;
  double topk_ms = 0.0;
  for (std::size_t sample = 0; sample < topk_samples; ++sample) {
    query_timer.Reset();
    auto current = engine.TopKSeeds(static_cast<NodeId>(k));
    const double ms = query_timer.ElapsedSeconds() * 1e3;
    topk_hist.Record(ms * 1e6);
    if (sample == 0) {
      selection = std::move(current);
      topk_ms = ms;
    }
  }

  std::printf("snapshot load: %.2f ms (%s mapped)\n", load_ms,
              FormatBytes(view->ApproxMemoryBytes()).c_str());
  std::printf("marginal gain: %.3f us/query over %llu active users "
              "(checksum %.3f)\n",
              gain_us, static_cast<unsigned long long>(gains), sink);
  PrintPercentiles("gain", gain_hist, 1e3, "us");
  std::printf("topk(%d): %.2f ms, %llu gain evaluations, %zu gain "
              "threads, engine %s\n",
              k, topk_ms,
              static_cast<unsigned long long>(selection.gain_evaluations),
              EffectiveThreadCount(gain_threads),
              FormatBytes(engine.ApproxMemoryBytes()).c_str());
  PrintPercentiles("topk", topk_hist, 1e6, "ms");
  records.push_back(
      {"snapshot_load", load_ms * 1e6, view->ApproxMemoryBytes(), 1});
  records.push_back(
      WithPercentiles({"marginal_gain", gain_us * 1e3, 0, 1}, gain_hist));
  records.push_back(WithPercentiles(
      {"topk", topk_ms * 1e6, engine.ApproxMemoryBytes(),
       EffectiveThreadCount(gain_threads)},
      topk_hist));

  if (serve_threads > 1) {
    if (const int status = RunServeThreadsBench(*view, serve_threads,
                                                &records);
        status != 0) {
      return status;
    }
  }

  if (!graph_path.empty() && !log_path.empty()) {
    // The number the snapshot path is beating: rebuild-from-log per query.
    auto graph = LoadGraph(graph_path);
    if (!graph.ok()) return Fail(graph.status());
    auto log = LoadLog(log_path);
    if (!log.ok()) return Fail(log.status());
    auto credit = MakeCredit(credit_name, *graph, *log);
    if (!credit.ok()) return Fail(credit.status());
    timer.Reset();
    CdConfig config;
    // The only fair (and seed-identical) rebuild uses the lambda the
    // snapshot was scanned with, which it records — not the --lambda flag.
    config.truncation_threshold = view->truncation_threshold();
    auto model =
        CreditDistributionModel::Build(*graph, *log, *credit->model, config);
    if (!model.ok()) return Fail(model.status());
    auto live = model->SelectSeeds(static_cast<NodeId>(k));
    if (!live.ok()) return Fail(live.status());
    const double rebuild_ms = timer.ElapsedSeconds() * 1e3;
    std::printf("rebuild + select: %.2f ms (%.1fx the snapshot path)\n",
                rebuild_ms, topk_ms > 0 ? rebuild_ms / topk_ms : 0.0);
    records.push_back({"rebuild_topk", rebuild_ms * 1e6,
                       model->ApproxMemoryBytes(), 1});
    if (live->seeds != selection.seeds) {
      std::printf("! seed mismatch between snapshot and rebuild\n");
      return 1;
    }
  }
  int rc = 0;
  if (!json_path.empty()) rc = WriteBenchJson(json_path, records);
  rc |= dump.DumpAll();
  return rc;
}

int Main(int argc, char** argv) {
  std::string graph_path;
  std::string log_path;
  std::string snapshot_path;
  std::string out_path;
  std::string credit_name = "equal";
  std::string json_path;
  std::string metrics_json;
  std::string metrics_prom;
  double lambda = 0.001;
  int k = 50;
  int gain_threads = 0;
  int serve_threads = 1;
  int topk_samples = 3;
  bool build = false;
  bool rescan = false;
  bool bench = false;
  FlagParser flags;
  flags.AddString("graph", &graph_path, "graph file (.tsv or .bin)");
  flags.AddString("log", &log_path, "action log file (.tsv or .bin)");
  flags.AddString("snapshot", &snapshot_path, "snapshot file to load/write");
  flags.AddString("out", &out_path, "output snapshot (--rescan)");
  flags.AddString("credit", &credit_name, "equal | timedecay");
  flags.AddDouble("lambda", &lambda, "CD truncation threshold");
  flags.AddInt("k", &k, "seeds for --bench topk");
  flags.AddInt("gain_threads", &gain_threads,
               "workers for topk gain passes (0 = auto; bit-identical)");
  flags.AddInt("serve_threads", &serve_threads,
               "--bench only: concurrent serving engines over one view");
  flags.AddInt("topk_samples", &topk_samples,
               "--bench only: topk queries per latency distribution");
  flags.AddString("json", &json_path,
                  "--bench only: write machine-readable results here");
  flags.AddString("metrics_json", &metrics_json,
                  "dump the metrics registry here (bench-json records; "
                  "refreshed by `metrics` and at exit)");
  flags.AddString("metrics_prom", &metrics_prom,
                  "dump the registry here as Prometheus text");
  flags.AddBool("build", &build, "scan graph+log and write the snapshot");
  flags.AddBool("rescan", &rescan, "replay appended log records");
  flags.AddBool("bench", &bench, "report query latency");
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "--snapshot is required\n");
    return 1;
  }
  if (build || rescan) {
    if (graph_path.empty() || log_path.empty()) {
      std::fprintf(stderr, "--graph and --log are required with --%s\n",
                   build ? "build" : "rescan");
      return 1;
    }
    if (build) {
      return RunBuild(graph_path, log_path, snapshot_path, credit_name,
                      lambda);
    }
    if (out_path.empty()) {
      std::fprintf(stderr, "--out is required with --rescan\n");
      return 1;
    }
    return RunRescan(graph_path, log_path, snapshot_path, out_path,
                     credit_name, lambda);
  }
  if (gain_threads < 0 || serve_threads < 1 || topk_samples < 1) {
    std::fprintf(stderr,
                 "--gain_threads must be >= 0, --serve_threads >= 1, "
                 "--topk_samples >= 1\n%s",
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  const MetricsDump dump{metrics_json, metrics_prom};
  if (bench) {
    return RunBench(snapshot_path, graph_path, log_path, credit_name, k,
                    static_cast<std::size_t>(gain_threads),
                    static_cast<std::size_t>(serve_threads),
                    static_cast<std::size_t>(topk_samples), json_path, dump);
  }
  return RunServe(snapshot_path, static_cast<std::size_t>(gain_threads),
                  dump);
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
