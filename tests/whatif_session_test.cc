// What-if sessions against the live model (docs/serving.md): a seeded
// random commit stream is replayed on the snapshot engine and on the
// shard router, and after every commit every user's marginal gain must
// bit-equal CreditDistributionModel::MarginalGain under the same
// commits — before and after a ResetSession, for gain_threads {1, 4}
// and shard counts {1, 3}. Plus the overlay's work counter: a session
// copies exactly the forward rows Algorithm 5 writes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "obs/metrics.h"
#include "probability/time_params.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"

namespace influmax {
namespace {

constexpr std::size_t kCommitsPerSession = 24;

struct Fixture {
  SyntheticDataset data;
  InfluenceTimeParams params;
};

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
    INFLUMAX_CHECK(data.ok());
    auto params = LearnTimeParams(data->graph, data->log);
    INFLUMAX_CHECK(params.ok());
    return new Fixture{std::move(data).value(), std::move(params).value()};
  }();
  return *fixture;
}

CreditDistributionModel BuildLiveModel() {
  const Fixture& fx = GetFixture();
  static const TimeDecayDirectCredit* credit =
      new TimeDecayDirectCredit(fx.params);
  CdConfig config;
  config.truncation_threshold = 0.001;  // truncation is part of the state
  auto model = CreditDistributionModel::Build(fx.data.graph, fx.data.log,
                                              *credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Appends the live creditors of x, over every action x performed, to
/// `*out` as (creditor, action) pairs.
void LiveCreditorsOf(const CreditDistributionModel& model, NodeId x,
                     std::vector<std::pair<NodeId, ActionId>>* out) {
  std::vector<CreditEntry> creditors;
  for (const UserAction& ua : model.log().UserActions(x)) {
    creditors.clear();
    model.store().table(ua.action).SnapshotCreditors(x, &creditors);
    for (const CreditEntry& c : creditors) out->push_back({c.node, ua.action});
  }
}

/// A commit stream and the live model's gain of every user after each
/// commit.
struct LiveSession {
  std::vector<NodeId> commits;
  std::vector<std::vector<double>> gains;  // [commit][user]
  std::size_t creditor_commits = 0;        // kind-2 picks that found one
};

/// Draws a seeded commit stream while committing it on a fresh live
/// model. The stream cycles through four kinds of commit, the user
/// picked at random within each kind:
///   0: any user who acted;
///   1: a user who shares an action with the previous commit;
///   2: a live creditor of an earlier seed (its forward rows were
///      written by that seed's commit before it is committed itself);
///   3: a repeat of an earlier commit (a no-op on both sides).
LiveSession RecordLiveSession(std::uint64_t seed) {
  const ActionLog& log = GetFixture().data.log;
  CreditDistributionModel model = BuildLiveModel();
  Rng rng(seed);
  std::vector<NodeId> active;
  for (NodeId u = 0; u < log.num_users(); ++u) {
    if (log.ActionsPerformedBy(u) > 0) active.push_back(u);
  }
  INFLUMAX_CHECK(!active.empty());
  std::vector<std::uint8_t> is_seed(log.num_users(), 0);
  std::vector<std::pair<NodeId, ActionId>> seed_creditors;
  LiveSession session;
  for (std::size_t i = 0; i < kCommitsPerSession; ++i) {
    NodeId x = active[rng.NextBounded(active.size())];
    if (i % 4 == 1 && !session.commits.empty()) {
      const auto actions = log.UserActions(session.commits.back());
      if (!actions.empty()) {
        const auto trace =
            log.ActionTrace(actions[rng.NextBounded(actions.size())].action);
        x = trace[rng.NextBounded(trace.size())].user;
      }
    } else if (i % 4 == 2) {
      std::vector<NodeId> candidates;
      for (const auto& [v, a] : seed_creditors) {
        if (!is_seed[v]) candidates.push_back(v);
      }
      if (!candidates.empty()) {
        x = candidates[rng.NextBounded(candidates.size())];
        ++session.creditor_commits;
      }
    } else if (i % 4 == 3 && !session.commits.empty()) {
      x = session.commits[rng.NextBounded(session.commits.size())];
    }
    if (!is_seed[x]) LiveCreditorsOf(model, x, &seed_creditors);
    model.CommitSeed(x);
    is_seed[x] = 1;
    session.commits.push_back(x);
    std::vector<double>& gains = session.gains.emplace_back();
    for (NodeId u = 0; u < log.num_users(); ++u) {
      gains.push_back(model.MarginalGain(u));
    }
  }
  return session;
}

/// Replays `session` on `server` twice — on a fresh session, then again
/// after ResetSession — asserting every user's gain bit-equals the live
/// model's after every commit.
template <typename Server>
void ExpectReplaysBitForBit(Server& server, const LiveSession& session,
                            const std::string& label) {
  const NodeId users = GetFixture().data.log.num_users();
  for (int pass = 0; pass < 2; ++pass) {
    server.ResetSession();
    for (std::size_t i = 0; i < session.commits.size(); ++i) {
      server.CommitSeed(session.commits[i]);
      for (NodeId u = 0; u < users; ++u) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(server.MarginalGain(u)),
                  std::bit_cast<std::uint64_t>(session.gains[i][u]))
            << label << " pass " << pass << " commit " << i << " (node "
            << session.commits[i] << ") gain of node " << u;
      }
    }
  }
}

TEST(WhatIfSessionTest, RandomCommitStreamsMatchLiveModelBitForBit) {
  const CreditDistributionModel model = BuildLiveModel();
  const std::string dir = MakeTempDir("whatif_diff");
  const std::string path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  std::vector<ShardedSnapshot> sharded;
  for (std::size_t shards : {1u, 3u}) {
    const std::string shard_dir = dir + "/s" + std::to_string(shards);
    std::filesystem::create_directories(shard_dir);
    ShardedSnapshotWriter writer(shard_dir, shards);
    ASSERT_TRUE(writer.WriteFromModel(model, /*generation=*/1).ok());
    auto opened =
        OpenShardedSnapshot(shard_dir + "/" + ManifestFileName(1));
    ASSERT_TRUE(opened.ok());
    sharded.push_back(std::move(opened).value());
  }

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const LiveSession session = RecordLiveSession(seed);
    // The stream must exercise what it claims: a repeated commit and a
    // seed whose rows an earlier commit wrote.
    std::set<NodeId> distinct(session.commits.begin(), session.commits.end());
    ASSERT_LT(distinct.size(), session.commits.size()) << "seed " << seed;
    ASSERT_GT(session.creditor_commits, 0u) << "seed " << seed;

    for (std::size_t threads : {1u, 4u}) {
      SnapshotQueryEngine engine(*view);
      engine.set_gain_threads(threads);
      ExpectReplaysBitForBit(engine, session,
                             "seed " + std::to_string(seed) + " engine x" +
                                 std::to_string(threads));
    }
    for (const ShardedSnapshot& shards : sharded) {
      ShardRouter router(shards);
      ExpectReplaysBitForBit(router, session,
                             "seed " + std::to_string(seed) + " router/" +
                                 std::to_string(router.num_shards()));
    }
  }
  std::filesystem::remove_all(dir);
}

std::uint64_t GlobalCounterValue(const char* name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

TEST(WhatIfSessionTest, OverlayCopiesExactlyTheRowsAlgorithm5Writes) {
  if constexpr (!kObsEnabled) GTEST_SKIP() << "telemetry compiled out";
  CreditDistributionModel model = BuildLiveModel();
  const std::string dir = MakeTempDir("whatif_entries");
  const std::string path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());

  // The commits of a fixed session; the rows Algorithm 5 writes are the
  // forward rows of each seed's live creditors (the seed's own rows are
  // erased, not copied). Each is copied once per session, whole.
  const std::vector<NodeId> commits = RecordLiveSession(7).commits;
  std::set<std::uint64_t> written;
  std::set<ActionId> touched_actions;
  for (NodeId x : commits) {
    std::vector<std::pair<NodeId, ActionId>> creditors;
    if (std::find(model.committed_seeds().begin(),
                  model.committed_seeds().end(),
                  x) == model.committed_seeds().end()) {
      LiveCreditorsOf(model, x, &creditors);
      for (const UserAction& ua : model.log().UserActions(x)) {
        touched_actions.insert(ua.action);
      }
    }
    for (const auto& [v, a] : creditors) written.insert(view->SlotOf(v, a));
    model.CommitSeed(x);
  }
  std::uint64_t expected = 0;
  for (std::uint64_t s : written) expected += view->fwd_count()[s];
  std::uint64_t whole_actions = 0;
  for (ActionId a : touched_actions) {
    whole_actions +=
        view->action_entry_begin()[a + 1] - view->action_entry_begin()[a];
  }
  ASSERT_GT(expected, 0u);
  // Copying whole actions would cost more than the written rows alone.
  EXPECT_LT(expected, whole_actions);

  for (std::size_t threads : {1u, 4u}) {
    SnapshotQueryEngine engine(*view);
    engine.set_gain_threads(threads);
    for (int pass = 0; pass < 2; ++pass) {
      const std::uint64_t before =
          GlobalCounterValue("serve.overlay.entries");
      for (NodeId x : commits) engine.CommitSeed(x);
      EXPECT_EQ(GlobalCounterValue("serve.overlay.entries") - before,
                expected)
          << "threads " << threads << " pass " << pass;
      engine.ResetSession();
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace influmax
