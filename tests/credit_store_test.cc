#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "actionlog/propagation_dag.h"
#include "core/cd_model.h"
#include "core/credit_store.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "reference_cd.h"

namespace influmax {
namespace {

TEST(ActionCreditTableTest, AddAndLookup) {
  ActionCreditTable table;
  EXPECT_DOUBLE_EQ(table.Credit(1, 2), 0.0);
  table.AddCredit(1, 2, 0.25);
  table.AddCredit(1, 2, 0.5);
  EXPECT_DOUBLE_EQ(table.Credit(1, 2), 0.75);
  EXPECT_DOUBLE_EQ(table.Credit(2, 1), 0.0);  // directed
  EXPECT_EQ(table.num_entries(), 1u);
}

TEST(ActionCreditTableTest, AdjacencyTracksFirstInsertOnly) {
  ActionCreditTable table;
  table.AddCredit(1, 2, 0.1);
  table.AddCredit(1, 2, 0.1);
  table.AddCredit(1, 3, 0.2);
  const auto credited = table.CreditedUsers(1);
  EXPECT_EQ(credited.size(), 2u);
  const auto creditors = table.Creditors(2);
  ASSERT_EQ(creditors.size(), 1u);
  EXPECT_EQ(creditors[0].node, 1u);
  EXPECT_DOUBLE_EQ(table.credit(creditors[0].entry), 0.2);
  EXPECT_TRUE(table.CreditedUsers(7).empty());
}

// Algorithm 5's erasures and the adjacency compaction live in the test
// reference (reference_cd.h); the library's table is scan-only.
using reference::CreditTable;

TEST(ReferenceCreditTableTest, SubtractErasesAtZero) {
  CreditTable table;
  table.AddCredit(1, 2, 0.3);
  table.SubtractCredit(1, 2, 0.1);
  EXPECT_NEAR(table.Credit(1, 2), 0.2, 1e-15);
  table.SubtractCredit(1, 2, 0.2);
  EXPECT_DOUBLE_EQ(table.Credit(1, 2), 0.0);
  EXPECT_EQ(table.num_entries(), 0u);
  // Adjacency may be stale, but credit reads as zero.
  for (NodeId u : table.CreditedUsers(1)) {
    EXPECT_DOUBLE_EQ(table.Credit(1, u), 0.0);
  }
}

TEST(ReferenceCreditTableTest, SubtractOnMissingEntryIsNoop) {
  CreditTable table;
  table.SubtractCredit(5, 6, 0.5);
  EXPECT_EQ(table.num_entries(), 0u);
}

TEST(ReferenceCreditTableTest, EraseRemovesEntry) {
  CreditTable table;
  table.AddCredit(3, 4, 1.0);
  table.Erase(3, 4);
  EXPECT_DOUBLE_EQ(table.Credit(3, 4), 0.0);
  EXPECT_EQ(table.num_entries(), 0u);
}

TEST(ActionCreditTableTest, MemoryGrowsWithEntries) {
  ActionCreditTable small;
  small.AddCredit(0, 1, 0.5);
  ActionCreditTable large;
  for (NodeId u = 0; u < 100; ++u) large.AddCredit(u, u + 1, 0.5);
  EXPECT_GT(large.ApproxMemoryBytes(), small.ApproxMemoryBytes());
}

TEST(ReferenceCreditStoreTest, SetCreditAccumulates) {
  reference::CreditStore store(2);
  EXPECT_DOUBLE_EQ(store.SetCredit(7, 1), 0.0);
  store.AddSetCredit(7, 1, 0.25);
  store.AddSetCredit(7, 1, 0.25);
  EXPECT_DOUBLE_EQ(store.SetCredit(7, 1), 0.5);
  EXPECT_DOUBLE_EQ(store.SetCredit(7, 0), 0.0);
}

TEST(ReferenceCreditStoreTest, TotalEntriesAcrossActions) {
  reference::CreditStore store(3);
  store.table(0).AddCredit(1, 2, 0.5);
  store.table(0).AddCredit(2, 3, 0.5);
  store.table(2).AddCredit(1, 3, 0.5);
  EXPECT_EQ(store.total_entries(), 3u);
  EXPECT_GT(store.ApproxMemoryBytes(), 0u);
}

TEST(ReferenceCreditTableTest, SnapshotSkipsStaleEntries) {
  CreditTable table;
  table.AddCredit(1, 2, 0.5);
  table.AddCredit(1, 3, 0.5);
  table.AddCredit(4, 3, 0.5);
  table.SubtractCredit(1, 2, 0.5);  // erased: stale in both lists
  std::vector<CreditEntry> credited;
  table.SnapshotCredited(1, &credited);
  ASSERT_EQ(credited.size(), 1u);
  EXPECT_EQ(credited[0].node, 3u);
  EXPECT_DOUBLE_EQ(credited[0].credit, 0.5);
  std::vector<CreditEntry> creditors;
  table.SnapshotCreditors(3, &creditors);
  ASSERT_EQ(creditors.size(), 2u);
}

TEST(ReferenceCreditTableTest, MajorityStaleListsAreCompacted) {
  CreditTable table;
  constexpr NodeId kFanOut = 40;
  for (NodeId u = 1; u <= kFanOut; ++u) table.AddCredit(0, u, 1.0);
  ASSERT_EQ(table.CreditedUsers(0).size(), kFanOut);
  // Kill 30 of the 40 entries; once the erased outnumber the live
  // entries the table sweeps every list, so the span must shrink well
  // below 40.
  for (NodeId u = 1; u <= 30; ++u) table.SubtractCredit(0, u, 1.0);
  const auto credited = table.CreditedUsers(0);
  EXPECT_LT(credited.size(), kFanOut);
  std::size_t live = 0;
  for (NodeId u : credited) {
    if (table.Credit(0, u) > 0.0) ++live;
  }
  EXPECT_EQ(live, 10u);
  // Stale fraction stays a minority after compaction.
  EXPECT_LE(2 * (credited.size() - live), credited.size());
  EXPECT_EQ(table.num_entries(), 10u);
}

TEST(ReferenceCreditTableTest, ShortListsAreNotCompacted) {
  CreditTable table;
  table.AddCredit(0, 1, 1.0);
  table.AddCredit(0, 2, 1.0);
  table.SubtractCredit(0, 1, 1.0);
  // Below kCompactMinErasures no sweep runs; the stale id stays and
  // readers see Credit() == 0.
  EXPECT_EQ(table.CreditedUsers(0).size(), 2u);
  EXPECT_DOUBLE_EQ(table.Credit(0, 1), 0.0);
}

// Seed-era reference implementation of the Algorithm 2 scan: one
// std::unordered_map of credits per action, map-of-vectors adjacency.
// The flat-hash scan must reproduce it bit for bit.
struct ReferenceScan {
  static std::uint64_t Key(NodeId v, NodeId u) {
    return (static_cast<std::uint64_t>(v) << 32) | u;
  }

  std::vector<std::unordered_map<std::uint64_t, double>> credit;
  std::vector<std::unordered_map<NodeId, std::vector<NodeId>>> backward;

  ReferenceScan(const Graph& graph, const ActionLog& log,
                const DirectCreditModel& model) {
    credit.resize(log.num_actions());
    backward.resize(log.num_actions());
    for (ActionId a = 0; a < log.num_actions(); ++a) {
      const PropagationDag dag =
          BuildPropagationDag(graph, log.ActionTrace(a));
      for (NodeId pos = 0; pos < dag.size(); ++pos) {
        const auto parents = dag.Parents(pos);
        if (parents.empty()) continue;
        const auto edges = dag.ParentEdges(pos);
        const NodeId u = dag.UserAt(pos);
        const auto din = static_cast<std::uint32_t>(parents.size());
        for (std::size_t i = 0; i < parents.size(); ++i) {
          const NodeId v = dag.UserAt(parents[i]);
          const double gamma = model.Gamma(
              u, din, dag.TimeAt(pos) - dag.TimeAt(parents[i]), edges[i]);
          if (gamma <= 0.0) continue;
          for (NodeId w : backward[a][v]) {
            const double transitive = credit[a][Key(w, v)] * gamma;
            if (transitive > 0.0) {
              auto [it, inserted] =
                  credit[a].emplace(Key(w, u), transitive);
              if (inserted) {
                backward[a][u].push_back(w);
              } else {
                it->second += transitive;
              }
            }
          }
          auto [it, inserted] = credit[a].emplace(Key(v, u), gamma);
          if (inserted) {
            backward[a][u].push_back(v);
          } else {
            it->second += gamma;
          }
        }
      }
    }
  }
};

SyntheticDataset MakeScanDataset() {
  auto graph = GeneratePreferentialAttachment({300, 4, 0.6}, 21);
  EXPECT_TRUE(graph.ok());
  CascadeConfig config;
  config.num_actions = 150;
  config.seed = 22;
  auto data = GenerateCascadeDataset(std::move(graph).value(), config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(CreditStoreScanTest, FlatScanMatchesMapOfMapsReference) {
  const SyntheticDataset data = MakeScanDataset();
  EqualDirectCredit credit_model;
  CdConfig config;
  config.truncation_threshold = 0.0;  // exact: reference has no truncation
  config.scan_threads = 1;
  auto model = CreditDistributionModel::Build(data.graph, data.log,
                                              credit_model, config);
  ASSERT_TRUE(model.ok());

  const ReferenceScan reference(data.graph, data.log, credit_model);
  const SnapshotData frozen = model->ToSnapshotData();
  std::uint64_t reference_entries = 0;
  for (ActionId a = 0; a < data.log.num_actions(); ++a) {
    reference_entries += reference.credit[a].size();
    for (const auto& [key, value] : reference.credit[a]) {
      const NodeId v = static_cast<NodeId>(key >> 32);
      const NodeId u = static_cast<NodeId>(key & 0xFFFFFFFFu);
      EXPECT_DOUBLE_EQ(reference::CreditIn(frozen, a, v, u), value)
          << "action " << a << " pair (" << v << ", " << u << ")";
    }
  }
  EXPECT_EQ(model->credit_entries(), reference_entries);
}

TEST(CreditStoreScanTest, SeedSelectionIdenticalForAnyThreadCount) {
  const SyntheticDataset data = MakeScanDataset();
  EqualDirectCredit credit_model;

  CreditDistributionModel::SeedSelection baseline;
  std::uint64_t baseline_entries = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{0}}) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    auto model = CreditDistributionModel::Build(data.graph, data.log,
                                                credit_model, config);
    ASSERT_TRUE(model.ok());
    const std::uint64_t entries = model->credit_entries();
    auto selection = model->SelectSeeds(10);
    ASSERT_TRUE(selection.ok());
    if (threads == 1) {
      baseline = std::move(selection).value();
      baseline_entries = entries;
      EXPECT_FALSE(baseline.seeds.empty());
      continue;
    }
    EXPECT_EQ(entries, baseline_entries) << threads << " threads";
    ASSERT_EQ(selection->seeds.size(), baseline.seeds.size());
    for (std::size_t i = 0; i < baseline.seeds.size(); ++i) {
      EXPECT_EQ(selection->seeds[i], baseline.seeds[i]) << "pick " << i;
      EXPECT_DOUBLE_EQ(selection->marginal_gains[i],
                       baseline.marginal_gains[i]);
      EXPECT_DOUBLE_EQ(selection->cumulative_spread[i],
                       baseline.cumulative_spread[i]);
    }
  }
}

}  // namespace
}  // namespace influmax
