#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "probability/time_params.h"
#include "serve/query_engine.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

CreditDistributionModel BuildModel(const Graph& graph, const ActionLog& log,
                                   const DirectCreditModel& credit,
                                   double lambda = 0.0) {
  CdConfig config;
  config.truncation_threshold = lambda;
  auto model = CreditDistributionModel::Build(graph, log, credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

CreditSnapshotView WriteAndOpen(const CreditDistributionModel& model,
                                const std::string& path) {
  INFLUMAX_CHECK(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  return std::move(view).value();
}

/// First ~keep_fraction of every action's trace, rebuilt as its own log.
/// Original action ids are preserved, and since densification preserves
/// their numeric order, dense ids match the full log's — the contract
/// IncrementalRescan requires.
ActionLog PrefixLog(const ActionLog& full, double keep_fraction) {
  ActionLogBuilder builder(full.num_users());
  for (ActionId a = 0; a < full.num_actions(); ++a) {
    const auto trace = full.ActionTrace(a);
    const std::size_t keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(trace.size()) * keep_fraction));
    for (std::size_t i = 0; i < keep && i < trace.size(); ++i) {
      builder.Add(trace[i].user, full.OriginalActionId(a), trace[i].time);
    }
  }
  auto log = builder.Build();
  INFLUMAX_CHECK(log.ok());
  return std::move(log).value();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// ------------------------------------------------- round-trip exactness

TEST(SnapshotTest, PaperExampleHeaderAndCounts) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper.snap");
  auto view = WriteAndOpen(model, path);

  EXPECT_EQ(view.num_users(), 6u);
  EXPECT_EQ(view.num_actions(), 1u);
  EXPECT_EQ(view.num_slots(), ex.log.num_tuples());
  EXPECT_EQ(view.num_entries(), model.credit_entries());
  EXPECT_EQ(view.graph_fingerprint(), FingerprintGraph(ex.graph));
  EXPECT_EQ(view.log_fingerprint(), FingerprintActionLog(ex.log));
  EXPECT_EQ(view.truncation_threshold(), 0.0);
  EXPECT_TRUE(view.seeds().empty());
  EXPECT_EQ(view.ApproxMemoryBytes(), ReadFileBytes(path).size());
  std::remove(path.c_str());
}

TEST(SnapshotTest, PaperExampleMarginalGainsMatchBitForBit) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper_mg.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  // The paper's worked value: Gamma_{v,u} = 0.75, plus v's own 1/A_v = 1
  // and the w/t/z/u rows v credits.
  EXPECT_GT(engine.MarginalGain(PaperExample::kV), 1.0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, PaperExampleTopKMatchesSelectSeeds) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("paper_topk.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto live = model.SelectSeeds(6);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(6);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  EXPECT_EQ(served.cumulative_spread, live->cumulative_spread);
  EXPECT_EQ(served.gain_evaluations, live->gain_evaluations);
  std::remove(path.c_str());
}

TEST(SnapshotTest, GeneratedDatasetMatchesLiveModelBitForBit) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  auto params = LearnTimeParams(data->graph, data->log);
  ASSERT_TRUE(params.ok());
  TimeDecayDirectCredit credit(*params);
  // The paper's default lambda, so truncation is part of what round-trips.
  auto model = BuildModel(data->graph, data->log, credit, 0.001);
  const std::string path = TempPath("gen.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  for (NodeId x = 0; x < data->log.num_users(); ++x) {
    ASSERT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  auto live = model.SelectSeeds(10);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(10);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  EXPECT_EQ(served.cumulative_spread, live->cumulative_spread);
  EXPECT_EQ(served.gain_evaluations, live->gain_evaluations);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SessionCommitTracksLiveCommit) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("commit.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  const std::vector<double> base_gains = [&] {
    std::vector<double> g;
    for (NodeId x = 0; x < 6; ++x) g.push_back(engine.MarginalGain(x));
    return g;
  }();

  model.CommitSeed(PaperExample::kV);
  engine.CommitSeed(PaperExample::kV);
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  EXPECT_EQ(engine.session_seeds().size(), 1u);

  // The session rewinds to the snapshot base; the live model cannot.
  engine.ResetSession();
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), base_gains[x]) << "node " << x;
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, SnapshotOfModelWithCommittedSeedsKeepsThem) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  model.CommitSeed(PaperExample::kV);
  const std::string path = TempPath("seeded.snap");
  auto view = WriteAndOpen(model, path);
  ASSERT_EQ(view.seeds().size(), 1u);
  EXPECT_EQ(view.seeds()[0], PaperExample::kV);

  SnapshotQueryEngine engine(view);
  EXPECT_EQ(engine.MarginalGain(PaperExample::kV), 0.0);  // already a seed
  for (NodeId x = 0; x < 6; ++x) {
    EXPECT_EQ(engine.MarginalGain(x), model.MarginalGain(x)) << "node " << x;
  }
  // Frozen seeds survive a session reset.
  engine.ResetSession();
  EXPECT_EQ(engine.MarginalGain(PaperExample::kV), 0.0);
  std::remove(path.c_str());
}

TEST(SnapshotTest, SpreadOfMatchesGreedyCumulativeSpread) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  auto model = BuildModel(data->graph, data->log, credit);
  const std::string path = TempPath("spread.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto served = engine.TopKSeeds(5);
  ASSERT_FALSE(served.seeds.empty());
  EXPECT_EQ(engine.SpreadOf(served.seeds),
            served.cumulative_spread.back());
  std::remove(path.c_str());
}

TEST(SnapshotTest, SpreadBudgetStopsEarly) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  auto model = BuildModel(data->graph, data->log, credit);
  const std::string path = TempPath("budget.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);

  auto unbounded = engine.TopKSeeds(5);
  ASSERT_GE(unbounded.seeds.size(), 2u);
  // Allow exactly the first pick: the second would blow the budget.
  const double budget = unbounded.cumulative_spread[0];
  auto bounded = engine.TopKSeeds(5, budget);
  EXPECT_EQ(bounded.seeds.size(), 1u);
  EXPECT_EQ(bounded.seeds[0], unbounded.seeds[0]);
  EXPECT_LE(bounded.cumulative_spread.back(), budget);
  std::remove(path.c_str());
}

// --------------------------------------------------- corruption handling

TEST(SnapshotTest, RejectsMissingTruncatedAndMangledFiles) {
  EXPECT_FALSE(CreditSnapshotView::Open("/no/such/snapshot.bin").ok());

  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kSnapshotPreludeBytes);

  // Truncated: every cut must be rejected, with the byte offset named.
  for (std::size_t cut : {bytes.size() / 2, kSnapshotPreludeBytes + 3,
                          std::size_t{10}}) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(cut));
    auto truncated = CreditSnapshotView::Open(path);
    ASSERT_FALSE(truncated.ok()) << "cut at " << cut;
    EXPECT_NE(truncated.status().message().find("byte offset"),
              std::string::npos)
        << truncated.status().message();
  }

  // Wrong magic.
  {
    std::string mangled = bytes;
    mangled[0] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  // Mangled section count (first section's u64 count lives right after
  // the prelude).
  {
    std::string mangled = bytes;
    mangled[kSnapshotPreludeBytes] ^= 0xFF;
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(mangled.data(), static_cast<std::streamsize>(mangled.size()));
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  // Not a snapshot at all.
  {
    std::ofstream(path, std::ios::trunc) << "just some text\n";
    EXPECT_FALSE(CreditSnapshotView::Open(path).ok());
  }
  std::remove(path.c_str());
}

// A backward record is validated only against its action's entry slice,
// not against its creditor's row. The engine reads a creditor's credit
// relative to that creditor's own row (its overlay copy, or the shared
// zero row once the creditor is a seed), so a record pointing into
// another slot of the same action must be skipped, not followed.
TEST(SnapshotTest, ForgedBackwardRecordIntoAnotherSlotIsSkipped) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  SnapshotData data = BuildSnapshotData(model.store(), ex.graph, ex.log,
                                        /*truncation_threshold=*/0.0, {});
  const ActionId a = 0;
  const std::uint64_t first = data.action_entry_begin[a];
  const std::uint64_t last = data.action_entry_begin[a + 1] - 1;
  const std::uint64_t su = data.SlotOf(PaperExample::kU, a);
  int forged = 0;
  for (std::uint64_t j = data.bwd_begin[su];
       j < data.bwd_begin[su] + data.bwd_count[su]; ++j) {
    const std::uint64_t sv = data.SlotOf(data.bwd_node[j], a);
    if (data.bwd_node[j] == PaperExample::kT) {
      // Below t's row: the first entry of the action, in v's row.
      ASSERT_GT(data.fwd_begin[sv], first);
      data.bwd_entry[j] = first;
      ++forged;
    } else if (data.bwd_node[j] == PaperExample::kV) {
      // Past v's row, and past the zero row v reads once it is a seed.
      ASSERT_GE(last, data.fwd_begin[sv] + data.fwd_count[sv]);
      data.bwd_entry[j] = last;
      ++forged;
    }
  }
  ASSERT_EQ(forged, 2);
  const std::string path = TempPath("forged_bwd.snap");
  ASSERT_TRUE(WriteSnapshotFile(data, path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status().message();

  SnapshotQueryEngine engine(*view);
  engine.CommitSeed(PaperExample::kV);  // v's row now reads the zero row
  engine.CommitSeed(PaperExample::kU);  // walks the forged records
  EXPECT_EQ(engine.session_seeds().size(), 2u);
  for (NodeId x = 0; x < 6; ++x) {
    const double gain = engine.MarginalGain(x);
    EXPECT_TRUE(std::isfinite(gain)) << "node " << x;
    EXPECT_GE(gain, 0.0) << "node " << x;
  }
  engine.ResetSession();
  EXPECT_TRUE(engine.session_seeds().empty());
  std::remove(path.c_str());
}

// --------------------------------------------------- incremental rescan

TEST(SnapshotTest, IncrementalRescanReproducesFullRebuildByteForByte) {
  auto data = BuildPresetDataset(FlickrSmallPreset(0.1));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;

  const ActionLog prefix = PrefixLog(data->log, 0.6);
  ASSERT_LT(prefix.num_tuples(), data->log.num_tuples());
  ASSERT_EQ(prefix.num_actions(), data->log.num_actions());

  auto old_model =
      CreditDistributionModel::Build(data->graph, prefix, credit, config);
  ASSERT_TRUE(old_model.ok());
  const std::string old_path = TempPath("rescan_old.snap");
  auto view = WriteAndOpen(*old_model, old_path);

  const std::string delta_path = TempPath("rescan_delta.snap");
  RescanStats stats;
  ASSERT_TRUE(IncrementalRescan(view, data->graph, data->log, credit, config,
                                delta_path, &stats)
                  .ok());
  EXPECT_GT(stats.rescanned_actions, 0u);
  EXPECT_GT(stats.replayed_tuples, 0u);
  EXPECT_EQ(stats.new_actions, 0u);
  EXPECT_EQ(stats.unchanged_actions + stats.rescanned_actions,
            data->log.num_actions());
  EXPECT_EQ(stats.replayed_tuples,
            data->log.num_tuples() - prefix.num_tuples());

  // The replayed snapshot is byte-identical to one written from a model
  // built over the full log from scratch.
  auto full_model =
      CreditDistributionModel::Build(data->graph, data->log, credit, config);
  ASSERT_TRUE(full_model.ok());
  const std::string full_path = TempPath("rescan_full.snap");
  ASSERT_TRUE(full_model->WriteSnapshot(full_path).ok());
  EXPECT_EQ(ReadFileBytes(delta_path), ReadFileBytes(full_path));

  // And it serves the full log's selection.
  auto delta_view = CreditSnapshotView::Open(delta_path);
  ASSERT_TRUE(delta_view.ok());
  SnapshotQueryEngine engine(*delta_view);
  auto live = full_model->SelectSeeds(8);
  ASSERT_TRUE(live.ok());
  auto served = engine.TopKSeeds(8);
  EXPECT_EQ(served.seeds, live->seeds);
  EXPECT_EQ(served.marginal_gains, live->marginal_gains);
  std::remove(old_path.c_str());
  std::remove(delta_path.c_str());
  std::remove(full_path.c_str());
}

TEST(SnapshotTest, IncrementalRescanRejectsRewrittenHistoryAndMismatches) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("rescan_guard.snap");
  auto view = WriteAndOpen(*model, path);
  const std::string out = TempPath("rescan_guard_out.snap");

  // Rewritten history: same shape, different activation time.
  {
    ActionLogBuilder builder(6);
    for (const ActionTuple& t : ex.log.tuples()) {
      builder.Add(t.user, 0, t.time + 0.25);
    }
    auto rewritten = builder.Build();
    ASSERT_TRUE(rewritten.ok());
    auto status = IncrementalRescan(view, ex.graph, *rewritten, credit,
                                    config, out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption);
  }
  // Lambda mismatch.
  {
    CdConfig other = config;
    other.truncation_threshold = 0.5;
    auto status =
        IncrementalRescan(view, ex.graph, ex.log, credit, other, out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Graph mismatch.
  {
    auto other_graph = testing_fixtures::MakeDiamondGraph();
    auto status =
        IncrementalRescan(view, other_graph, ex.log, credit, config, out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Snapshots with committed seeds cannot be replayed forward.
  {
    auto seeded =
        CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
    ASSERT_TRUE(seeded.ok());
    seeded->CommitSeed(PaperExample::kV);
    const std::string seeded_path = TempPath("rescan_seeded.snap");
    auto seeded_view = WriteAndOpen(*seeded, seeded_path);
    auto status = IncrementalRescan(seeded_view, ex.graph, ex.log, credit,
                                    config, out);
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
    std::remove(seeded_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, IncrementalRescanNoChangeIsIdentity) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, config);
  ASSERT_TRUE(model.ok());
  const std::string path = TempPath("rescan_id.snap");
  auto view = WriteAndOpen(*model, path);
  const std::string out = TempPath("rescan_id_out.snap");
  RescanStats stats;
  ASSERT_TRUE(IncrementalRescan(view, ex.graph, ex.log, credit, config, out,
                                &stats)
                  .ok());
  EXPECT_EQ(stats.unchanged_actions, ex.log.num_actions());
  EXPECT_EQ(stats.rescanned_actions, 0u);
  EXPECT_EQ(stats.replayed_tuples, 0u);
  EXPECT_EQ(ReadFileBytes(out), ReadFileBytes(path));
  std::remove(path.c_str());
  std::remove(out.c_str());
}

// --------------------------------------------------------- memory report

TEST(SnapshotTest, MemoryNumbersAreReported) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("mem.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.ApproxMemoryBytes(), kSnapshotPreludeBytes);

  SnapshotQueryEngine engine(view);
  const std::uint64_t before = engine.ApproxMemoryBytes();
  engine.TopKSeeds(3);
  EXPECT_GE(engine.ApproxMemoryBytes(), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace influmax
