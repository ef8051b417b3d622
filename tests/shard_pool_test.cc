// The generation manager's shared shard pool (docs/parallelism.md): a
// default session fans its commits, resets and batched gains out on the
// manager's one WorkerPool. Every answer must be bit-identical to a
// router with no pool, concurrent sessions must share the pool without
// deadlock, and a partial (shard-server) manager must never start it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "obs/metrics.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace {

constexpr std::size_t kShards = 4;
constexpr NodeId kTopK = 50;
constexpr std::size_t kWhatifCommits = 5;

/// Threads of this process, counted from /proc/self/task.
std::size_t ThreadCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

std::uint64_t CounterValue(const char* name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

/// What a session answers: TopKSeeds(kTopK) from a fresh session, then
/// every user's gain after each of kWhatifCommits commits (the first
/// seeds in reverse order, so the what-if path differs from the greedy).
struct Answers {
  SnapshotSeedSelection topk;
  std::vector<std::vector<double>> whatif_gains;
};

Answers Ask(ShardRouter& router) {
  Answers answers;
  router.ResetSession();
  answers.topk = router.TopKSeeds(kTopK);
  router.ResetSession();
  const std::vector<NodeId>& seeds = answers.topk.seeds;
  const std::size_t commits = std::min(kWhatifCommits, seeds.size());
  for (std::size_t i = 0; i < commits; ++i) {
    router.CommitSeed(seeds[commits - 1 - i]);
    std::vector<double> gains(router.num_users());
    for (NodeId x = 0; x < router.num_users(); ++x) {
      gains[x] = router.MarginalGain(x);
    }
    answers.whatif_gains.push_back(std::move(gains));
  }
  router.ResetSession();
  return answers;
}

void ExpectSameAnswers(const Answers& got, const Answers& want) {
  EXPECT_EQ(got.topk.seeds, want.topk.seeds);
  EXPECT_EQ(got.topk.marginal_gains, want.topk.marginal_gains);
  EXPECT_EQ(got.topk.cumulative_spread, want.topk.cumulative_spread);
  EXPECT_EQ(got.topk.gain_evaluations, want.topk.gain_evaluations);
  EXPECT_EQ(got.whatif_gains, want.whatif_gains);
}

class ShardPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/shard_pool_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
    INFLUMAX_CHECK(data.ok());
    EqualDirectCredit credit;
    CdConfig config;
    config.truncation_threshold = 0.001;
    auto model =
        CreditDistributionModel::Build(data->graph, data->log, credit, config);
    INFLUMAX_CHECK(model.ok());
    ShardedSnapshotWriter writer(dir_, kShards);
    INFLUMAX_CHECK(writer.WriteFromModel(*model, 1).ok());
    INFLUMAX_CHECK(WriteCurrentManifestName(dir_, ManifestFileName(1)).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// The answers of a router with no pool over the same generation.
  Answers PoollessAnswers() {
    auto shards = OpenShardedSnapshot(dir_ + "/" + ManifestFileName(1));
    INFLUMAX_CHECK(shards.ok());
    INFLUMAX_CHECK(shards->views.size() == kShards);
    ShardRouter router(*shards, nullptr);
    return Ask(router);
  }

  std::string dir_;
};

TEST_F(ShardPoolTest, DefaultSessionMatchesPoollessRouterBitForBit) {
  const Answers want = PoollessAnswers();
  ASSERT_EQ(want.topk.seeds.size(), static_cast<std::size_t>(kTopK));

  auto manager = GenerationManager::Open(dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  GenerationManager::Session session(**manager);
  const std::uint64_t jobs = CounterValue("pool.jobs");
  ExpectSameAnswers(Ask(session.router()), want);
  if (EffectiveThreadCount(0) > 1) {
    EXPECT_GT(CounterValue("pool.jobs"), jobs)
        << "the session never fanned out";
  }
}

TEST_F(ShardPoolTest, SingleGainsStayOnTheCaller) {
  auto manager = GenerationManager::Open(dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  GenerationManager::Session session(**manager);
  ShardRouter& router = session.router();
  router.CommitSeed(0);
  const std::uint64_t jobs = CounterValue("pool.jobs");
  double sum = 0.0;
  for (NodeId x = 0; x < router.num_users(); ++x) sum += router.MarginalGain(x);
  EXPECT_GE(sum, 0.0);
  EXPECT_EQ(CounterValue("pool.jobs"), jobs);
}

TEST_F(ShardPoolTest, ConcurrentSessionsShareThePoolAndAgree) {
  const Answers want = PoollessAnswers();
  auto manager = GenerationManager::Open(dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  constexpr std::size_t kThreads = 4;
  constexpr int kRepeats = 3;
  std::vector<std::vector<Answers>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      GenerationManager::Session session(**manager);
      for (int r = 0; r < kRepeats; ++r) {
        got[t].push_back(Ask(session.router()));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<std::size_t>(kRepeats));
    for (const Answers& answers : got[t]) {
      SCOPED_TRACE("thread " + std::to_string(t));
      ExpectSameAnswers(answers, want);
    }
  }
}

TEST_F(ShardPoolTest, PoolStartsOnTheFirstRouterAndNeverOnAPartialManager) {
  const std::size_t before = ThreadCount();
  {
    auto partial = GenerationManager::Open(dir_, 4, /*recover=*/false,
                                           ShardRange::One(0));
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    GenerationManager::Session session(**partial);
    EXPECT_EQ(session.shards().views.size(), 1u);
    EXPECT_EQ(ThreadCount(), before);
  }

  auto manager = GenerationManager::Open(dir_);
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();
  GenerationManager::Session first(**manager);
  EXPECT_EQ(ThreadCount(), before) << "Open or a pin started threads";
  first.router();
  const std::size_t workers = std::min(kShards, EffectiveThreadCount(0));
  EXPECT_EQ(ThreadCount(), before + workers - 1);
  GenerationManager::Session second(**manager);
  second.router().CommitSeed(0);
  EXPECT_EQ(ThreadCount(), before + workers - 1)
      << "a second session started its own pool";
}

}  // namespace
}  // namespace influmax
