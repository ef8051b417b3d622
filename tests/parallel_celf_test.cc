#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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

// SelectSeeds over an image frozen by a parallel scan (scan_threads)
// must reproduce the serial build's greedy bit for bit — seed order,
// every gain, and the CELF evaluation count — for any thread count.
TEST(ParallelCelfTest, SelectSeedsIdenticalForAnyThreadCount) {
  const SyntheticDataset data = MakeDataset(300, 150, 91);
  EqualDirectCredit credit;
  CreditDistributionModel::SeedSelection baseline;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
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
                              std::to_string(threads) + " scan threads");
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

// A log dominated by one huge action must freeze to the same bytes at
// every scan thread count: snapshot freezing preserves entry values
// *and* adjacency order, so byte-identical snapshot files are the
// strongest equality there is. The huge action (every node, id order)
// holds more than half the log's tuples, so one worker scans it while
// the others take the handful of small actions, and the gather must
// still lay every slice out in action order.
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
  // The huge action must outweigh all the small ones together.
  ASSERT_GT(static_cast<std::uint64_t>(nodes), log->num_tuples() / 2);

  EqualDirectCredit credit;
  std::string baseline_bytes;
  for (const std::size_t threads : kThreadCounts) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
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
