#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/propagation_dag.h"
#include "common/logging.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "common/parallel.h"
#include "serve/snapshot_view.h"
#include "shard/shard_router.h"
#include "one_shard.h"

namespace influmax {
namespace {

using testing_fixtures::OneShard;

// The thread counts the determinism contract is asserted over: serial,
// even, odd/prime, and whatever the hardware resolves 0 ("auto") to.
const std::size_t kThreadCounts[] = {1, 2, 7, 0};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

SyntheticDataset MakeDataset(NodeId nodes, ActionId actions,
                             std::uint64_t seed) {
  auto graph = GeneratePreferentialAttachment({nodes, 4, 0.6}, seed);
  EXPECT_TRUE(graph.ok());
  CascadeConfig config;
  config.num_actions = actions;
  config.seed = seed + 1;
  auto data = GenerateCascadeDataset(std::move(graph).value(), config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void ExpectSelectionsIdentical(
    const CreditDistributionModel::SeedSelection& baseline,
    const CreditDistributionModel::SeedSelection& other,
    const std::string& label) {
  EXPECT_EQ(other.gain_evaluations, baseline.gain_evaluations) << label;
  ASSERT_EQ(other.seeds.size(), baseline.seeds.size()) << label;
  for (std::size_t i = 0; i < baseline.seeds.size(); ++i) {
    EXPECT_EQ(other.seeds[i], baseline.seeds[i]) << label << " pick " << i;
    EXPECT_EQ(other.marginal_gains[i], baseline.marginal_gains[i])
        << label << " pick " << i;
    EXPECT_EQ(other.cumulative_spread[i],
                     baseline.cumulative_spread[i])
        << label << " pick " << i;
  }
}

// SelectSeeds with the parallel initial pass and batched stale
// re-evaluations, over an image frozen by a parallel scan
// (scan_threads), must reproduce the serial greedy bit for bit — seed order, every gain, and the CELF evaluation count — for any
// thread count (the count is the lazy-forward efficiency metric;
// speculative evaluations must never leak into it).
TEST(ParallelCelfTest, SelectSeedsIdenticalForAnyThreadCount) {
  const SyntheticDataset data = MakeDataset(300, 150, 91);
  EqualDirectCredit credit;
  CreditDistributionModel::SeedSelection baseline;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.select_threads = threads;
    config.scan_threads = threads;  // parallel scan and freeze
    auto model =
        CreditDistributionModel::Build(data.graph, data.log, credit, config);
    ASSERT_TRUE(model.ok());
    auto selection = model->SelectSeeds(15);
    ASSERT_TRUE(selection.ok());
    if (threads == 1) {
      baseline = std::move(selection).value();
      EXPECT_FALSE(baseline.seeds.empty());
      EXPECT_GT(baseline.gain_evaluations, baseline.seeds.size());
      continue;
    }
    ExpectSelectionsIdentical(baseline, *selection,
                              std::to_string(threads) + " select threads");
  }
}

// Same contract for the served TopKSeeds (a 1-shard router, no pool or
// a WorkerPool of each size), plus equality with the live model (the
// serving layer's bit-identical guarantee must survive the parallel
// passes).
TEST(ParallelCelfTest, TopKSeedsIdenticalForAnyGainThreadCount) {
  const SyntheticDataset data = MakeDataset(300, 150, 92);
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto model =
      CreditDistributionModel::Build(data.graph, data.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("parallel_celf.snap");
  ASSERT_TRUE(model->WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  auto live = model->SelectSeeds(12);
  ASSERT_TRUE(live.ok());

  SnapshotSeedSelection baseline;
  for (const std::size_t threads : kThreadCounts) {
    std::optional<WorkerPool> pool;
    if (threads != 1) pool.emplace(threads);
    OneShard router(*view, threads == 1 ? nullptr : &*pool);
    const SnapshotSeedSelection selection = router->TopKSeeds(12);
    if (threads == 1) {
      baseline = selection;
      // The engine replays the live greedy exactly, evaluations included.
      EXPECT_EQ(baseline.seeds, live->seeds);
      EXPECT_EQ(baseline.gain_evaluations, live->gain_evaluations);
      for (std::size_t i = 0; i < baseline.seeds.size(); ++i) {
        EXPECT_EQ(baseline.marginal_gains[i],
                         live->marginal_gains[i]);
      }
      continue;
    }
    const std::string label = std::to_string(threads) + " pool workers";
    EXPECT_EQ(selection.gain_evaluations, baseline.gain_evaluations)
        << label;
    ASSERT_EQ(selection.seeds.size(), baseline.seeds.size()) << label;
    for (std::size_t i = 0; i < baseline.seeds.size(); ++i) {
      EXPECT_EQ(selection.seeds[i], baseline.seeds[i]) << label;
      EXPECT_EQ(selection.marginal_gains[i],
                       baseline.marginal_gains[i])
          << label;
      EXPECT_EQ(selection.cumulative_spread[i],
                       baseline.cumulative_spread[i])
          << label;
    }
  }
  std::remove(path.c_str());
}

// A TopKSeeds interleaved with other session traffic must behave like a
// fresh query regardless of the pool (the speculation memo must not
// leak across calls or commits).
TEST(ParallelCelfTest, TopKSeedsAfterSessionChurnStillIdentical) {
  const SyntheticDataset data = MakeDataset(200, 100, 93);
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto model =
      CreditDistributionModel::Build(data.graph, data.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("parallel_celf_churn.snap");
  ASSERT_TRUE(model->WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  OneShard serial(*view);
  const SnapshotSeedSelection expected = serial->TopKSeeds(8);

  WorkerPool pool(7);
  ShardRouter router(serial.shards(), &pool);
  (void)router.TopKSeeds(3);  // leaves memo + session state behind
  router.CommitSeed(expected.seeds.empty() ? 0 : expected.seeds[0]);
  const SnapshotSeedSelection repeat = router.TopKSeeds(8);
  EXPECT_EQ(repeat.seeds, expected.seeds);
  EXPECT_EQ(repeat.gain_evaluations, expected.gain_evaluations);
  std::remove(path.c_str());
}

// The intra-action sharded scan must leave the store bit-identical to
// the serial scan: snapshot freezing preserves entry values *and*
// adjacency order, so byte-identical snapshot files are the strongest
// equality there is. The dataset gets one huge action (every node, id
// order) dominating a handful of small ones, so it clears both the
// shard floor and Build's fair-share straggler rule and the sharded
// path actually engages.
TEST(ParallelCelfTest, ShardedScanSnapshotBytesIdentical) {
  const NodeId nodes = 400;
  auto graph_result = GeneratePreferentialAttachment({nodes, 4, 0.6}, 94);
  ASSERT_TRUE(graph_result.ok());
  const Graph graph = std::move(graph_result).value();
  CascadeConfig cascade;
  cascade.num_actions = 10;
  cascade.seed = 95;
  auto data = GenerateCascadeDataset(graph, cascade);
  ASSERT_TRUE(data.ok());
  ActionLogBuilder builder(nodes);
  for (const ActionTuple& t : data->log.tuples()) {
    builder.Add(t.user, t.action, t.time);
  }
  for (NodeId u = 0; u < nodes; ++u) {  // the huge action
    builder.Add(u, 1u << 20, static_cast<Timestamp>(u));
  }
  auto log = builder.Build();
  ASSERT_TRUE(log.ok());
  // The huge action must exceed the fair per-worker share for every
  // multi-thread count below, or Build routes it action-per-worker and
  // the sharded path sits idle.
  ASSERT_GT(static_cast<std::uint64_t>(nodes), log->num_tuples() / 2);

  EqualDirectCredit credit;
  std::string baseline_bytes;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    config.scan_shard_min_positions = 64;  // well under the huge action
    auto model =
        CreditDistributionModel::Build(data->graph, *log, credit, config);
    ASSERT_TRUE(model.ok());
    const std::string path =
        TempPath("sharded_scan_" + std::to_string(threads) + ".snap");
    ASSERT_TRUE(model->WriteSnapshot(path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    if (threads == 1) {
      baseline_bytes = bytes;
      ASSERT_FALSE(baseline_bytes.empty());
      continue;
    }
    EXPECT_EQ(bytes, baseline_bytes)
        << threads << " scan threads diverged from the serial scan";
  }
}

// ScanDagRangeSharded against ScanDagRange directly, resuming mid-DAG
// (the incremental-rescan seam) and with sharding forced on.
TEST(ParallelCelfTest, ShardedScanMatchesSerialFromAnyBeginPos) {
  const SyntheticDataset data = MakeDataset(250, 40, 96);
  EqualDirectCredit credit;
  // The largest action in the log, scanned standalone.
  ActionId biggest = 0;
  for (ActionId a = 0; a < data.log.num_actions(); ++a) {
    if (data.log.ActionSize(a) > data.log.ActionSize(biggest)) biggest = a;
  }
  const PropagationDag dag =
      BuildPropagationDag(data.graph, data.log.ActionTrace(biggest));
  ASSERT_GT(dag.size(), 8u);
  for (const NodeId begin_pos : {NodeId{0}, dag.size() / 2}) {
    ActionCreditTable serial;
    std::vector<CreditEntry> scratch;
    ScanDagRange(dag, credit, /*lambda=*/0.0, begin_pos, &serial, &scratch);
    ActionCreditTable sharded;
    std::vector<ScanArena> arenas(7);
    ScanDagRangeSharded(dag, credit, /*lambda=*/0.0, begin_pos,
                        /*num_threads=*/7, &sharded, arenas);
    ASSERT_EQ(sharded.num_entries(), serial.num_entries())
        << "begin_pos " << begin_pos;
    for (NodeId v = 0; v < data.graph.num_nodes(); ++v) {
      for (const auto& [u, entry] : serial.CreditedUsers(v)) {
        EXPECT_EQ(sharded.Credit(v, u), serial.Credit(v, u))
            << "pair (" << v << ", " << u << ") begin_pos " << begin_pos;
      }
    }
  }
}

// Commits after a parallel scan: manual commits of the busiest users
// (long per-action update lists) on images frozen under every scan
// thread count must serialize byte-identically — snapshots freeze UC
// adjacency order, credit values, and the SC baseline, so byte-equality
// is the strongest store equality there is.
TEST(ParallelCelfTest, CommitSeedParallelSnapshotBytesIdentical) {
  const SyntheticDataset data = MakeDataset(250, 120, 98);
  EqualDirectCredit credit;
  // The three busiest users: their UserActions lists are the longest
  // commit fan-outs the dataset has.
  std::vector<NodeId> busiest(data.graph.num_nodes());
  for (NodeId u = 0; u < data.graph.num_nodes(); ++u) busiest[u] = u;
  std::sort(busiest.begin(), busiest.end(), [&](NodeId a, NodeId b) {
    const auto na = data.log.ActionsPerformedBy(a);
    const auto nb = data.log.ActionsPerformedBy(b);
    return na != nb ? na > nb : a < b;
  });
  busiest.resize(3);

  std::string baseline_bytes;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    auto model =
        CreditDistributionModel::Build(data.graph, data.log, credit, config);
    ASSERT_TRUE(model.ok());
    for (const NodeId seed : busiest) model->CommitSeed(seed);
    const std::string path =
        TempPath("parallel_commit_" + std::to_string(threads) + ".snap");
    ASSERT_TRUE(model->WriteSnapshot(path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    if (threads == 1) {
      baseline_bytes = bytes;
      ASSERT_FALSE(baseline_bytes.empty());
      continue;
    }
    EXPECT_EQ(bytes, baseline_bytes)
        << threads << " commit threads diverged from the serial commit";
  }
}

// Sharded-scan boundary case: an action whose length is *exactly*
// scan_shard_min_positions (and exactly the fair per-worker share edge)
// must still produce byte-identical snapshots whichever routing it gets.
TEST(ParallelCelfTest, ShardedScanExactlyAtFloorBytesIdentical) {
  const NodeId nodes = 256;
  auto graph_result = GeneratePreferentialAttachment({nodes, 4, 0.6}, 100);
  ASSERT_TRUE(graph_result.ok());
  const Graph graph = std::move(graph_result).value();
  ActionLogBuilder builder(nodes);
  // One action covering every node (length == nodes == the floor below),
  // plus a few small ones so the fair-share rule has a log to weigh.
  for (NodeId u = 0; u < nodes; ++u) {
    builder.Add(u, 0, static_cast<Timestamp>(u));
  }
  for (NodeId u = 0; u < 16; ++u) {
    builder.Add(u, 1, static_cast<Timestamp>(u));
    builder.Add(u, 2, static_cast<Timestamp>(u + 1));
  }
  auto log = builder.Build();
  ASSERT_TRUE(log.ok());

  EqualDirectCredit credit;
  std::string baseline_bytes;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    config.scan_shard_min_positions = nodes;  // exactly the action length
    auto model =
        CreditDistributionModel::Build(graph, *log, credit, config);
    ASSERT_TRUE(model.ok());
    const std::string path =
        TempPath("floor_scan_" + std::to_string(threads) + ".snap");
    ASSERT_TRUE(model->WriteSnapshot(path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    if (threads == 1) {
      baseline_bytes = bytes;
      continue;
    }
    EXPECT_EQ(bytes, baseline_bytes) << threads << " scan threads";
  }
}

// Sharded-scan boundary case: a truncation threshold high enough that
// whole stretches of the DAG (every multi-parent position) keep zero
// gammas — the wavefront must handle all-empty rows and still match the
// serial scan exactly.
TEST(ParallelCelfTest, ShardedScanTruncationFilteredShardsMatchSerial) {
  const SyntheticDataset data = MakeDataset(250, 40, 101);
  EqualDirectCredit credit;
  ActionId biggest = 0;
  for (ActionId a = 0; a < data.log.num_actions(); ++a) {
    if (data.log.ActionSize(a) > data.log.ActionSize(biggest)) biggest = a;
  }
  const PropagationDag dag =
      BuildPropagationDag(data.graph, data.log.ActionTrace(biggest));
  ASSERT_GT(dag.size(), 8u);
  // Equal credit hands out 1/d_in: lambda = 0.6 keeps only d_in == 1
  // positions, lambda = 1.1 keeps none at all.
  for (const double lambda : {0.6, 1.1}) {
    ActionCreditTable serial;
    std::vector<CreditEntry> scratch;
    ScanDagRange(dag, credit, lambda, /*begin_pos=*/0, &serial, &scratch);
    ActionCreditTable sharded;
    std::vector<ScanArena> arenas(7);
    ScanDagRangeSharded(dag, credit, lambda, /*begin_pos=*/0,
                        /*num_threads=*/7, &sharded, arenas);
    ASSERT_EQ(sharded.num_entries(), serial.num_entries())
        << "lambda " << lambda;
    for (NodeId v = 0; v < data.graph.num_nodes(); ++v) {
      for (const auto& [u, entry] : serial.CreditedUsers(v)) {
        EXPECT_EQ(sharded.Credit(v, u), serial.Credit(v, u))
            << "pair (" << v << ", " << u << ") lambda " << lambda;
      }
    }
  }
}

// Sharded-scan degenerate shapes: a single-level DAG (simultaneous
// activations — no parents at all) and a pure chain (every level has
// width 1, where the wavefront falls back to the serial merge). Both
// must match the serial scan entry for entry.
TEST(ParallelCelfTest, ShardedScanDegenerateDagsMatchSerial) {
  const NodeId nodes = 64;
  GraphBuilder graph_builder(nodes);
  for (NodeId u = 0; u + 1 < nodes; ++u) {
    graph_builder.AddReciprocalEdge(u, u + 1);
  }
  auto graph = graph_builder.Build();
  ASSERT_TRUE(graph.ok());
  EqualDirectCredit credit;

  // Single level: every user acts at t = 0, so nobody parents anybody
  // and the wavefront is one (empty-rows) wave.
  std::vector<ActionTuple> simultaneous;
  for (NodeId u = 0; u < nodes; ++u) simultaneous.push_back({u, 0, 0.0});
  // Chain: id-order activations over the path graph — level i holds
  // exactly position i, the narrow-DAG fallback.
  std::vector<ActionTuple> chain;
  for (NodeId u = 0; u < nodes; ++u) {
    chain.push_back({u, 0, static_cast<Timestamp>(u)});
  }
  for (const auto* trace : {&simultaneous, &chain}) {
    const PropagationDag dag = BuildPropagationDag(*graph, *trace);
    std::vector<std::uint32_t> levels;
    const std::uint32_t num_levels = dag.ComputeLevels(&levels);
    ActionCreditTable serial;
    std::vector<CreditEntry> scratch;
    ScanDagRange(dag, credit, /*lambda=*/0.0, /*begin_pos=*/0, &serial,
                 &scratch);
    ActionCreditTable sharded;
    std::vector<ScanArena> arenas(4);
    ScanDagRangeSharded(dag, credit, /*lambda=*/0.0, /*begin_pos=*/0,
                        /*num_threads=*/4, &sharded, arenas);
    ASSERT_EQ(sharded.num_entries(), serial.num_entries())
        << num_levels << " levels";
    for (NodeId v = 0; v < nodes; ++v) {
      for (const auto& [u, entry] : serial.CreditedUsers(v)) {
        EXPECT_EQ(sharded.Credit(v, u), serial.Credit(v, u))
            << "pair (" << v << ", " << u << "), " << num_levels
            << " levels";
      }
    }
  }
}

// Builds drawing their arenas from a shared ScanArenaPool must stay
// byte-identical to pool-less builds — reuse is a pure allocation
// optimization (ROADMAP "multi-dataset batching").
TEST(ParallelCelfTest, ArenaPoolReuseKeepsSnapshotsIdentical) {
  const SyntheticDataset data = MakeDataset(200, 100, 102);
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  config.scan_threads = 3;
  config.scan_shard_min_positions = 32;  // exercise the sharded path too

  auto reference =
      CreditDistributionModel::Build(data.graph, data.log, credit, config);
  ASSERT_TRUE(reference.ok());
  const std::string ref_path = TempPath("pool_reference.snap");
  ASSERT_TRUE(reference->WriteSnapshot(ref_path).ok());
  const std::string expected = ReadFileBytes(ref_path);
  std::remove(ref_path.c_str());

  ScanArenaPool pool;
  config.arena_pool = &pool;
  for (int round = 0; round < 3; ++round) {
    auto model =
        CreditDistributionModel::Build(data.graph, data.log, credit, config);
    ASSERT_TRUE(model.ok());
    const std::string path =
        TempPath("pool_round_" + std::to_string(round) + ".snap");
    ASSERT_TRUE(model->WriteSnapshot(path).ok());
    const std::string bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    EXPECT_EQ(bytes, expected) << "pool round " << round;
    EXPECT_EQ(pool.size(), 3u) << "arenas returned after round " << round;
  }
}

// Many sessions over one shared generation from many threads — the
// serving concurrency contract (and the ThreadSanitizer target): every
// session must independently reproduce the serial answers.
TEST(ParallelCelfTest, ConcurrentSessionsReproduceSerialAnswers) {
  const SyntheticDataset data = MakeDataset(200, 100, 97);
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.001;
  auto model =
      CreditDistributionModel::Build(data.graph, data.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("concurrent_sessions.snap");
  ASSERT_TRUE(model->WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  OneShard reference(*view);
  const SnapshotSeedSelection expected_topk = reference->TopKSeeds(5);
  reference->ResetSession();
  std::vector<double> expected_gains(view->num_users());
  for (NodeId x = 0; x < view->num_users(); ++x) {
    expected_gains[x] = reference->MarginalGain(x);
  }

  constexpr int kSessions = 6;
  std::vector<int> mismatches(kSessions, 0);
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      ShardRouter router(reference.shards());
      const SnapshotSeedSelection topk = router.TopKSeeds(5);
      if (topk.seeds != expected_topk.seeds ||
          topk.gain_evaluations != expected_topk.gain_evaluations) {
        ++mismatches[s];
      }
      router.ResetSession();
      for (NodeId x = 0; x < view->num_users(); ++x) {
        if (router.MarginalGain(x) != expected_gains[x]) {
          ++mismatches[s];
          break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(mismatches[s], 0) << "session " << s;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace influmax
