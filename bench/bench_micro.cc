// Micro-benchmarks (google-benchmark) for the performance-critical
// operations behind the experiment harnesses: the Algorithm 2 scan,
// marginal-gain evaluation, seed commits, the sigma_cd evaluator DP,
// one IC / LT Monte Carlo cascade, propagation-DAG construction, and a
// PageRank iteration.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "actionlog/action_log.h"
#include "actionlog/propagation_dag.h"
#include "common/bench_json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/cd_evaluator.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "graph/pagerank.h"
#include "obs/metrics.h"
#include "probability/em_learner.h"
#include "probability/time_params.h"
#include "propagation/monte_carlo.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace {

// Shared dataset; built once, sized by the benchmark range argument.
struct MicroFixture {
  SyntheticDataset data;
  InfluenceTimeParams params;

  explicit MicroFixture(NodeId nodes) {
    auto graph = GeneratePreferentialAttachment({nodes, 4, 0.6}, 77);
    INFLUMAX_CHECK(graph.ok());
    CascadeConfig config;
    config.num_actions = nodes / 2;
    config.seed = 78;
    auto generated = GenerateCascadeDataset(std::move(graph).value(), config);
    INFLUMAX_CHECK(generated.ok());
    data = std::move(generated).value();
    auto learned = LearnTimeParams(data.graph, data.log);
    INFLUMAX_CHECK(learned.ok());
    params = std::move(learned).value();
  }
};

const MicroFixture& Fixture(NodeId nodes) {
  static auto* fixtures =
      new std::map<NodeId, std::unique_ptr<MicroFixture>>();
  auto& slot = (*fixtures)[nodes];
  if (!slot) slot = std::make_unique<MicroFixture>(nodes);
  return *slot;
}

// The `n` most active users, by action count (ties to smaller id).
std::vector<NodeId> BusiestUsers(const ActionLog& log, std::size_t n) {
  std::vector<NodeId> users(log.num_users());
  for (NodeId u = 0; u < log.num_users(); ++u) users[u] = u;
  std::sort(users.begin(), users.end(), [&](NodeId a, NodeId b) {
    const auto na = log.ActionsPerformedBy(a);
    const auto nb = log.ActionsPerformedBy(b);
    return na != nb ? na > nb : a < b;
  });
  users.resize(std::min(n, users.size()));
  return users;
}

void BM_ScanActionLog(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  TimeDecayDirectCredit credit(fx.params);
  CdConfig config;
  for (auto _ : state) {
    auto model = CreditDistributionModel::Build(fx.data.graph, fx.data.log,
                                                credit, config);
    benchmark::DoNotOptimize(model.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.data.log.num_tuples()));
}
BENCHMARK(BM_ScanActionLog)->Arg(500)->Arg(2000);

void BM_MarginalGain(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  TimeDecayDirectCredit credit(fx.params);
  CdConfig config;
  auto model = CreditDistributionModel::Build(fx.data.graph, fx.data.log,
                                              credit, config);
  INFLUMAX_CHECK(model.ok());
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->MarginalGain(node));
    node = (node + 1) % fx.data.graph.num_nodes();
  }
}
BENCHMARK(BM_MarginalGain)->Arg(500)->Arg(2000);

// ------------------------------------------------- serving-layer benches
// The serving claim: a mmap'd snapshot answers top-k / marginal-gain
// queries without rebuilding the model from the log. BM_SnapshotLoad /
// BM_SnapshotTopKSeeds (a 1-shard router: monolithic serving) measure
// the served path; BM_RebuildTopKSeeds is the per-query cost it
// replaces.

// One snapshot file per fixture size, written once.
const std::string& SnapshotPath(NodeId nodes) {
  static auto* paths = new std::map<NodeId, std::string>();
  std::string& path = (*paths)[nodes];
  if (path.empty()) {
    const MicroFixture& fx = Fixture(nodes);
    TimeDecayDirectCredit credit(fx.params);
    CdConfig config;
    auto model = CreditDistributionModel::Build(fx.data.graph, fx.data.log,
                                                credit, config);
    INFLUMAX_CHECK(model.ok());
    path = "/tmp/influmax_bench_" + std::to_string(nodes) + ".snap";
    INFLUMAX_CHECK(model->WriteSnapshot(path).ok());
  }
  return path;
}

// One sharded generation directory per (nodes, shards), written once
// from the monolithic snapshot fixture.
const std::string& ShardDir(NodeId nodes, std::size_t shards) {
  static auto* dirs =
      new std::map<std::pair<NodeId, std::size_t>, std::string>();
  std::string& dir = (*dirs)[{nodes, shards}];
  if (dir.empty()) {
    dir = "/tmp/influmax_bench_shards_" + std::to_string(nodes) + "_" +
          std::to_string(shards);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto view = CreditSnapshotView::Open(SnapshotPath(nodes));
    INFLUMAX_CHECK(view.ok());
    ShardedSnapshotWriter writer(dir, shards);
    INFLUMAX_CHECK(writer.WriteFromView(*view, 1).ok());
    INFLUMAX_CHECK(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  }
  return dir;
}

void BM_SnapshotLoad(benchmark::State& state) {
  const std::string& path = SnapshotPath(static_cast<NodeId>(state.range(0)));
  std::uint64_t mapped = 0;
  for (auto _ : state) {
    auto view = CreditSnapshotView::Open(path);
    INFLUMAX_CHECK(view.ok());
    mapped = view->ApproxMemoryBytes();
    benchmark::DoNotOptimize(view->num_entries());
  }
  state.counters["mapped_bytes"] = static_cast<double>(mapped);
}
BENCHMARK(BM_SnapshotLoad)->Arg(500)->Arg(2000);

void BM_SnapshotMarginalGain(benchmark::State& state) {
  const std::string& path = SnapshotPath(static_cast<NodeId>(state.range(0)));
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  SnapshotQueryEngine engine(*view);
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MarginalGain(node));
    node = (node + 1) % view->num_users();
  }
}
BENCHMARK(BM_SnapshotMarginalGain)->Arg(500)->Arg(2000);

// The observability overhead contract (docs/observability.md): the
// instrumented gain path — sampled probe, 1 in kObsSampleEvery queries
// takes the clock-timed branch — must stay within 2% of the same loop
// with the engine's telemetry switched off. Arg(0) is the detached
// baseline, Arg(1) the instrumented path; bench_compare.py diffs both
// against BM_SnapshotMarginalGain/500, whose loop body this mirrors.
void BM_MetricsOverhead(benchmark::State& state) {
  const std::string& path = SnapshotPath(500);
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  SnapshotQueryEngine engine(*view);
  engine.set_obs_enabled(state.range(0) == 1);
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MarginalGain(node));
    node = (node + 1) % view->num_users();
  }
  state.counters["instrumented"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_MetricsOverhead)->Arg(0)->Arg(1);

void BM_SnapshotTopKSeeds(benchmark::State& state) {
  // Monolithic serving: a 1-shard generation of the snapshot fixture.
  const std::string& dir =
      ShardDir(static_cast<NodeId>(state.range(0)), /*shards=*/1);
  auto sharded = OpenShardedSnapshot(dir + "/" + ManifestFileName(1));
  INFLUMAX_CHECK(sharded.ok());
  ShardRouter router(*sharded);
  for (auto _ : state) {
    auto selection = router.TopKSeeds(10);
    benchmark::DoNotOptimize(selection.seeds.data());
  }
}
BENCHMARK(BM_SnapshotTopKSeeds)->Arg(500)->Arg(2000);

// One what-if session on one engine, the shape of perfbench's what-if
// phase: commit the 5 busiest users (the commits whose copy-on-write
// footprint is largest), ask 20 gains against that set (the next 20
// busiest users), then rewind. Commits dominate; the overlay_entries
// counter is the credits one session copied (serve.overlay.entries).
void BM_SnapshotWhatIfSession(benchmark::State& state) {
  const auto nodes = static_cast<NodeId>(state.range(0));
  const std::string& path = SnapshotPath(nodes);
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  SnapshotQueryEngine engine(*view);
  const std::vector<NodeId> busiest = BusiestUsers(Fixture(nodes).data.log, 25);
  INFLUMAX_CHECK(busiest.size() == 25);
  const std::span<const NodeId> commits(busiest.data(), 5);
  const std::span<const NodeId> gains(busiest.data() + 5, 20);
  const auto copied = [] {
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    const auto* c = snap.FindCounter("serve.overlay.entries");
    return c != nullptr ? c->value : 0;
  };
  const std::uint64_t copied_before = copied();
  double sink = 0.0;
  for (auto _ : state) {
    for (NodeId x : commits) engine.CommitSeed(x);
    for (NodeId x : gains) sink += engine.MarginalGain(x);
    engine.ResetSession();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["overlay_entries"] =
      static_cast<double>(copied() - copied_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_SnapshotWhatIfSession)->Arg(500)->Arg(2000);

void BM_RebuildTopKSeeds(benchmark::State& state) {
  // What every query cost before the serving layer: Build() + the
  // destructive SelectSeeds(), per request.
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  TimeDecayDirectCredit credit(fx.params);
  CdConfig config;
  for (auto _ : state) {
    auto model = CreditDistributionModel::Build(fx.data.graph, fx.data.log,
                                                credit, config);
    INFLUMAX_CHECK(model.ok());
    auto selection = model->SelectSeeds(10);
    INFLUMAX_CHECK(selection.ok());
    benchmark::DoNotOptimize(selection->seeds.data());
  }
}
BENCHMARK(BM_RebuildTopKSeeds)->Arg(500)->Arg(2000);

// ------------------------------------------------- gain-kernel benches
// The quotient-pool claim (docs/gain_kernel.md): summing the snapshot's
// precomputed fixed-point fwd_quotient stream beats the divide-and-gather
// fold the engine used before the pool existed. BM_GainKernelLegacy
// replays the old double fold verbatim over the raw view arrays
// (per-entry credit / au[fwd_node[e]] division, skip-if-zero branch);
// BM_GainKernelExact is the engine's integer sum. The fixture is one
// huge action — every node activating in id order under equal credit,
// lambda 0.001 — so the per-slot forward lists are long enough for the
// inner sum to dominate.

const std::string& DenseSnapshotPath() {
  static auto* path = new std::string();
  if (path->empty()) {
    constexpr NodeId kNodes = 2000;
    auto graph = GeneratePreferentialAttachment({kNodes, 4, 0.6}, 77);
    INFLUMAX_CHECK(graph.ok());
    ActionLogBuilder builder(kNodes);
    for (NodeId u = 0; u < kNodes; ++u) {
      builder.Add(u, 0, static_cast<Timestamp>(u));
    }
    auto log = builder.Build();
    INFLUMAX_CHECK(log.ok());
    EqualDirectCredit credit;
    CdConfig config;
    config.truncation_threshold = 0.001;
    auto model =
        CreditDistributionModel::Build(*graph, *log, credit, config);
    INFLUMAX_CHECK(model.ok());
    *path = "/tmp/influmax_bench_dense.snap";
    INFLUMAX_CHECK(model->WriteSnapshot(*path).ok());
  }
  return *path;
}

/// The pre-quotient-pool gain fold, kept verbatim as the baseline under
/// test: divide by au[fwd_node[e]] per entry, gather through fwd_node,
/// skip zero credits. Fresh-session shape (slot_sc is the frozen SC).
double LegacyMarginalGain(const CreditSnapshotView& view, NodeId x) {
  const auto au = view.au();
  if (au[x] == 0) return 0.0;
  const double inv_ax = 1.0 / au[x];
  const auto uo = view.user_offsets();
  const auto slot_sc = view.slot_sc();
  const auto fwd_begin = view.fwd_begin();
  const auto fwd_count = view.fwd_count();
  const auto fwd_node = view.fwd_node();
  const auto fwd_credit = view.fwd_credit();
  double mg = 0.0;
  for (std::uint64_t s = uo[x]; s < uo[x + 1]; ++s) {
    double mga = inv_ax;
    const std::uint64_t fb = fwd_begin[s];
    const std::uint32_t fc = fwd_count[s];
    for (std::uint64_t e = fb; e < fb + fc; ++e) {
      const double credit = fwd_credit[e];
      if (credit > 0.0) mga += credit / au[fwd_node[e]];
    }
    mg += mga * (1.0 - slot_sc[s]);
  }
  return mg;
}

void BM_GainKernelLegacy(benchmark::State& state) {
  auto view = CreditSnapshotView::Open(DenseSnapshotPath());
  INFLUMAX_CHECK(view.ok());
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LegacyMarginalGain(*view, node));
    node = (node + 1) % view->num_users();
  }
  state.counters["entries"] = static_cast<double>(view->num_entries());
}
BENCHMARK(BM_GainKernelLegacy);

void BM_GainKernelExact(benchmark::State& state) {
  auto view = CreditSnapshotView::Open(DenseSnapshotPath());
  INFLUMAX_CHECK(view.ok());
  SnapshotQueryEngine engine(*view);
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.MarginalGain(node));
    node = (node + 1) % view->num_users();
  }
  state.counters["entries"] = static_cast<double>(view->num_entries());
}
BENCHMARK(BM_GainKernelExact);

// ---------------------------------------------- sharded-serving benches
// Sharded serving (docs/sharding.md): BM_ShardRouterGain is the routed
// marginal gain — the sum of one engine's partial per shard — with the
// shard count as the range argument (the /1 row is the
// single-shard baseline; every row returns the identical bits).
// BM_GenerationSwap is one full generation swap under a live session:
// flip CURRENT, RefreshFromDisk (manifest read + blob validation +
// epoch publish + reclaim), then Session::Refresh (router rebuild on
// the new generation) and one query to prove liveness.

void BM_ShardRouterGain(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::string& dir = ShardDir(2000, shards);
  auto sharded = OpenShardedSnapshot(dir + "/" + ManifestFileName(1));
  INFLUMAX_CHECK(sharded.ok());
  ShardRouter router(*sharded);
  NodeId node = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.MarginalGain(node));
    node = (node + 1) % router.num_users();
  }
  state.counters["shards"] = static_cast<double>(sharded->views.size());
}
BENCHMARK(BM_ShardRouterGain)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_GenerationSwap(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  // Two identical-content generations with distinct numbers; the swap
  // machinery (not the ingest scan) is what the loop measures.
  const std::string dir = "/tmp/influmax_bench_swap_" +
                          std::to_string(shards);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto view = CreditSnapshotView::Open(SnapshotPath(500));
  INFLUMAX_CHECK(view.ok());
  ShardedSnapshotWriter writer(dir, shards);
  INFLUMAX_CHECK(writer.WriteFromView(*view, 1).ok());
  INFLUMAX_CHECK(writer.WriteFromView(*view, 2).ok());
  INFLUMAX_CHECK(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  auto manager = GenerationManager::Open(dir);
  INFLUMAX_CHECK(manager.ok());
  GenerationManager::Session session(**manager);
  std::uint64_t next = 2;
  for (auto _ : state) {
    INFLUMAX_CHECK(
        WriteCurrentManifestName(dir, ManifestFileName(next)).ok());
    auto swapped = (*manager)->RefreshFromDisk();
    INFLUMAX_CHECK(swapped.ok() && *swapped);
    INFLUMAX_CHECK(session.Refresh());
    benchmark::DoNotOptimize(session.router().MarginalGain(0));
    next = next == 2 ? 1 : 2;
  }
  state.counters["shards"] = static_cast<double>(shards);
  state.counters["retired"] =
      static_cast<double>((*manager)->retired_generations());
}
BENCHMARK(BM_GenerationSwap)->Arg(4);

// ------------------------------------------------ parallel CELF benches
// The parallel-greedy claim (docs/parallelism.md): the CELF initial
// marginal-gain pass — the dominant cost of a top-k query — scales with
// the router's WorkerPool while staying bit-identical. TopKSeeds(1) on
// a 1-shard router is the pass plus one commit; the worker count is the
// range argument (1 = no pool), so the JSON trajectory (--json) records
// ns_per_op per worker count side by side.

// Fixture size chosen so the scanned store holds a >= 100k-entry credit
// workload (the acceptance workload for the parallel pass).
constexpr NodeId kGainBenchNodes = 2000;

void BM_InitialGainPass(benchmark::State& state) {
  const std::string& dir = ShardDir(kGainBenchNodes, /*shards=*/1);
  auto sharded = OpenShardedSnapshot(dir + "/" + ManifestFileName(1));
  INFLUMAX_CHECK(sharded.ok());
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::optional<WorkerPool> pool;
  if (threads > 1) pool.emplace(threads);
  ShardRouter router(*sharded, pool ? &*pool : nullptr);
  std::uint64_t evals = 0;
  for (auto _ : state) {
    auto selection = router.TopKSeeds(1);
    evals = selection.gain_evaluations;
    benchmark::DoNotOptimize(selection.seeds.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["entries"] =
      static_cast<double>(sharded->views[0].num_entries());
  state.counters["gain_evals"] = static_cast<double>(evals);
}
BENCHMARK(BM_InitialGainPass)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CdEvaluatorSpread(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  TimeDecayDirectCredit credit(fx.params);
  auto evaluator =
      CdSpreadEvaluator::Build(fx.data.graph, fx.data.log, credit);
  INFLUMAX_CHECK(evaluator.ok());
  const std::vector<NodeId> seeds = {0, 5, 10, 15, 20};
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator->Spread(seeds));
  }
}
BENCHMARK(BM_CdEvaluatorSpread)->Arg(500)->Arg(2000);

void BM_IcCascade(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  IcSimulator simulator(fx.data.graph, fx.data.true_probabilities);
  const std::vector<NodeId> seeds = {0, 1, 2};
  std::uint64_t sim = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.RunOnce(seeds, SimulationSeed(9, sim++)));
  }
}
BENCHMARK(BM_IcCascade)->Arg(500)->Arg(2000);

void BM_LtCascade(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  // In-degree-normalized weights are always LT-valid.
  EdgeProbabilities weights(fx.data.graph.num_edges());
  for (NodeId v = 0; v < fx.data.graph.num_nodes(); ++v) {
    const EdgeIndex base = fx.data.graph.OutEdgeBegin(v);
    const auto out = fx.data.graph.OutNeighbors(v);
    for (std::size_t i = 0; i < out.size(); ++i) {
      weights[base + i] = 1.0 / fx.data.graph.InDegree(out[i]);
    }
  }
  LtSimulator simulator(fx.data.graph, weights);
  const std::vector<NodeId> seeds = {0, 1, 2};
  std::uint64_t sim = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator.RunOnce(seeds, SimulationSeed(11, sim++)));
  }
}
BENCHMARK(BM_LtCascade)->Arg(500)->Arg(2000);

void BM_BuildPropagationDag(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  ActionId action = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildPropagationDag(fx.data.graph, fx.data.log.ActionTrace(action)));
    action = (action + 1) % fx.data.log.num_actions();
  }
}
BENCHMARK(BM_BuildPropagationDag)->Arg(500)->Arg(2000);

void BM_PageRank(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  PageRankConfig config;
  config.max_iterations = 20;
  config.tolerance = 0.0;  // fixed 20 iterations for stable timing
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputePageRank(fx.data.graph, config));
  }
}
BENCHMARK(BM_PageRank)->Arg(500)->Arg(2000);

// ---------------------------------------------------------------------------
// Credit-store microbenchmarks: the flat-hash ActionCreditTable against a
// replica of the seed implementation (one std::unordered_map node per
// credit entry, map-of-vectors adjacency). Same (v, u) workload, same
// operation mix, so the ratio is the container speedup and the approx_mb
// counters compare the memory accounting on identical content.

/// The seed-era credit table, kept verbatim as the baseline under test.
class StdActionCreditTable {
 public:
  double Credit(NodeId v, NodeId u) const {
    const auto it = credit_.find(Key(v, u));
    return it == credit_.end() ? 0.0 : it->second;
  }

  void AddCredit(NodeId v, NodeId u, double delta) {
    auto [it, inserted] = credit_.emplace(Key(v, u), delta);
    if (inserted) {
      forward_[v].push_back(u);
      backward_[u].push_back(v);
    } else {
      it->second += delta;
    }
  }

  // Honest heap accounting (the seed version undercounted): every
  // unordered_map entry is a separately malloc'd node — payload plus the
  // chain pointer, rounded up to a glibc chunk — and every map also owns
  // a bucket-pointer array. Adjacency vectors are one heap allocation
  // each. This is what the process actually pays per entry; the flat
  // store's ApproxMemoryBytes is exact by construction, so the two
  // counters are comparable.
  static std::uint64_t MallocChunk(std::uint64_t payload) {
    // glibc: 8-byte chunk header, 16-byte granularity, 32-byte minimum.
    const std::uint64_t chunk = (payload + 8 + 15) / 16 * 16;
    return chunk < 32 ? 32 : chunk;
  }

  std::uint64_t ApproxMemoryBytes() const {
    const std::uint64_t kCreditNode =
        MallocChunk(sizeof(void*) + sizeof(std::uint64_t) + sizeof(double));
    std::uint64_t bytes = credit_.size() * kCreditNode +
                          credit_.bucket_count() * sizeof(void*);
    const std::uint64_t kAdjNode = MallocChunk(
        sizeof(void*) + sizeof(NodeId) + sizeof(std::vector<NodeId>) + 4);
    for (const auto* adj : {&forward_, &backward_}) {
      bytes += adj->size() * kAdjNode + adj->bucket_count() * sizeof(void*);
      for (const auto& [node, list] : *adj) {
        if (list.capacity() > 0) {
          bytes += MallocChunk(list.capacity() * sizeof(NodeId));
        }
      }
    }
    return bytes;
  }

 private:
  static std::uint64_t Key(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  std::unordered_map<std::uint64_t, double> credit_;
  std::unordered_map<NodeId, std::vector<NodeId>> forward_;
  std::unordered_map<NodeId, std::vector<NodeId>> backward_;
};

/// (v, u) pairs mimicking the scan: power-law-ish fan-out over 32k users,
/// with repeats so AddCredit exercises both insert and accumulate.
std::vector<std::pair<NodeId, NodeId>> CreditWorkload(std::size_t entries) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(entries);
  Rng rng(1234);
  constexpr NodeId kUsers = 32768;
  for (std::size_t i = 0; i < entries; ++i) {
    // Square the unit draw to skew v toward low ids (hub users).
    const double skew = rng.NextDouble();
    const NodeId v = static_cast<NodeId>(skew * skew * (kUsers - 1));
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kUsers));
    pairs.emplace_back(v, u);
  }
  return pairs;
}

template <typename Table>
void RunCreditInsert(benchmark::State& state) {
  const auto pairs = CreditWorkload(static_cast<std::size_t>(state.range(0)));
  double approx_mb = 0.0;
  for (auto _ : state) {
    std::optional<Table> table(std::in_place);
    for (const auto& [v, u] : pairs) table->AddCredit(v, u, 0.25);
    benchmark::DoNotOptimize(table->Credit(pairs[0].first, pairs[0].second));
    // Accounting and teardown are not the measured operation; the
    // node-based baseline frees one chunk per entry on destruction.
    state.PauseTiming();
    approx_mb =
        static_cast<double>(table->ApproxMemoryBytes()) / (1024.0 * 1024.0);
    table.reset();
    state.ResumeTiming();
  }
  state.counters["approx_mb"] = benchmark::Counter(approx_mb);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pairs.size()));
}

template <typename Table>
void RunCreditLookup(benchmark::State& state) {
  const auto pairs = CreditWorkload(static_cast<std::size_t>(state.range(0)));
  Table table;
  for (const auto& [v, u] : pairs) table.AddCredit(v, u, 0.25);
  // Half the probes hit (workload pairs), half miss (shifted user id).
  double sum = 0.0;
  for (auto _ : state) {
    for (const auto& [v, u] : pairs) {
      sum += table.Credit(v, u);
      sum += table.Credit(v, u + 1);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * pairs.size()));
}

void BM_CreditStoreInsert_Flat(benchmark::State& state) {
  RunCreditInsert<ActionCreditTable>(state);
}
BENCHMARK(BM_CreditStoreInsert_Flat)->Arg(100000);

void BM_CreditStoreInsert_StdUnorderedMap(benchmark::State& state) {
  RunCreditInsert<StdActionCreditTable>(state);
}
BENCHMARK(BM_CreditStoreInsert_StdUnorderedMap)->Arg(100000);

void BM_CreditStoreLookup_Flat(benchmark::State& state) {
  RunCreditLookup<ActionCreditTable>(state);
}
BENCHMARK(BM_CreditStoreLookup_Flat)->Arg(100000);

void BM_CreditStoreLookup_StdUnorderedMap(benchmark::State& state) {
  RunCreditLookup<StdActionCreditTable>(state);
}
BENCHMARK(BM_CreditStoreLookup_StdUnorderedMap)->Arg(100000);

void BM_EmIteration(benchmark::State& state) {
  const MicroFixture& fx = Fixture(static_cast<NodeId>(state.range(0)));
  EmConfig config;
  config.max_iterations = 1;  // one E+M step per run
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LearnIcProbabilitiesEm(fx.data.graph, fx.data.log, config).ok());
  }
}
BENCHMARK(BM_EmIteration)->Arg(500);

// --------------------------------------------------------- JSON output
// `--json=out.json` (or `--json out.json`) writes the run as
// {bench_name: {ns_per_op, bytes, threads}} — the compact contract CI
// archives as BENCH_micro.json so the perf trajectory is diffable across
// PRs (serve_shards --bench --json emits the same shape, via the shared
// common/bench_json.h writer).

// google-benchmark <= 1.7 flags failed runs with `error_occurred`; 1.8+
// replaced it with the `skipped` enum. Detect whichever member exists so
// the binary builds against both (CI runners carry 1.8, this tree 1.7).
template <typename R>
auto RunFailed(const R& run, int) -> decltype(bool(run.error_occurred)) {
  return run.error_occurred;
}
template <typename R>
auto RunFailed(const R& run, long) -> decltype(bool(run.skipped)) {
  return bool(run.skipped);
}

class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (RunFailed(run, 0) || run.iterations == 0) continue;
      BenchJsonRecord result;
      result.name = run.benchmark_name();
      result.ns_per_op =
          run.real_accumulated_time / static_cast<double>(run.iterations) *
          1e9;
      if (const auto it = run.counters.find("threads");
          it != run.counters.end()) {
        result.threads = static_cast<std::size_t>(it->second.value);
      }
      // Memory counters, best first: exact bytes, then the MB estimate.
      if (const auto it = run.counters.find("mapped_bytes");
          it != run.counters.end()) {
        result.bytes = static_cast<std::uint64_t>(it->second.value);
      } else if (const auto it2 = run.counters.find("approx_mb");
                 it2 != run.counters.end()) {
        result.bytes =
            static_cast<std::uint64_t>(it2->second.value * 1024.0 * 1024.0);
      }
      results.push_back(std::move(result));
    }
    ConsoleReporter::ReportRuns(report);
  }

  std::vector<BenchJsonRecord> results;
};

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) {
  // Strip --json before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);
  int bench_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  influmax::JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    return influmax::WriteBenchJson(json_path, reporter.results);
  }
  return 0;
}
