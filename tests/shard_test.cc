// Sharded snapshot serving (src/shard/, docs/sharding.md): the
// cross-shard determinism suite — sharded TopKSeeds/MarginalGain must be
// bit-identical to monolithic serving (a 1-shard generation of the
// monolithic snapshot) for shard counts {1, 2, 3, 7} — plus slicing
// byte-identity, manifest corruption rejection, and generation-swap
// behavior under live sessions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "one_shard.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::OneShard;

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
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

/// First ~keep_fraction of every action's trace (at least one tuple),
/// optionally dropping the last `drop_actions` actions entirely — the
/// append-only prefix shape IncrementalRescan requires.
ActionLog PrefixLog(const ActionLog& full, double keep_fraction,
                    ActionId drop_actions = 0) {
  ActionLogBuilder builder(full.num_users());
  const ActionId keep_actions = full.num_actions() - drop_actions;
  for (ActionId a = 0; a < keep_actions; ++a) {
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

SyntheticDataset MakeDataset(double scale = 0.1) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(scale));
  INFLUMAX_CHECK(data.ok());
  return std::move(data).value();
}

/// Splits `model` into `shards` blobs under a fresh directory and opens
/// the result (CURRENT written, so GenerationManager::Open works too).
ShardedSnapshot SplitAndOpen(const CreditDistributionModel& model,
                             const std::string& dir, std::size_t shards,
                             std::uint64_t generation = 1) {
  ShardedSnapshotWriter writer(dir, shards);
  INFLUMAX_CHECK(writer.WriteFromModel(model, generation).ok());
  INFLUMAX_CHECK(
      WriteCurrentManifestName(dir, ManifestFileName(generation)).ok());
  auto sharded =
      OpenShardedSnapshot(dir + "/" + ManifestFileName(generation));
  INFLUMAX_CHECK(sharded.ok());
  return std::move(sharded).value();
}

// ----------------------------------------------------------- planning

TEST(ShardPlanTest, RangesCoverSortedNonOverlapping) {
  // Skewed entry mass: action 0 holds most entries.
  const std::vector<std::uint64_t> aeb = {0, 1000, 1010, 1020,
                                          1030, 1040, 1050};
  for (std::size_t shards : {1u, 2u, 3u, 6u, 50u}) {
    const std::vector<ActionId> begins = PlanActionRanges(aeb, shards);
    ASSERT_GE(begins.size(), 2u);
    EXPECT_EQ(begins.front(), 0u);
    EXPECT_EQ(begins.back(), 6u);
    EXPECT_LE(begins.size() - 1, std::min<std::size_t>(shards, 6));
    for (std::size_t i = 0; i + 1 < begins.size(); ++i) {
      EXPECT_LT(begins[i], begins[i + 1]) << "empty shard " << i;
    }
  }
  // The heavy action pins shard 0 to a single action when N > 1.
  const std::vector<ActionId> two = PlanActionRanges(aeb, 2);
  EXPECT_EQ(two[1], 1u);
}

// ------------------------------------------- slice vs restricted build

TEST(ShardWriterTest, SliceMatchesRestrictedLogBuildByteForByte) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("slice_vs_restricted");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());

  const std::vector<ActionId> begins =
      PlanActionRanges(mono->action_entry_begin(), 3);
  ASSERT_EQ(begins.size(), 4u);
  for (std::size_t i = 0; i + 1 < begins.size(); ++i) {
    const SnapshotData slice = SliceShardData(*mono, begins[i],
                                              begins[i + 1]);
    const std::string slice_path = dir + "/slice" + std::to_string(i);
    ASSERT_TRUE(WriteSnapshotFile(slice, slice_path).ok());

    std::vector<ActionId> actions(begins[i + 1] - begins[i]);
    std::iota(actions.begin(), actions.end(), begins[i]);
    const ActionLog restricted = data.log.RestrictToActions(actions);
    const auto direct = BuildModel(data.graph, restricted, credit, 0.001);
    const std::string direct_path = dir + "/direct" + std::to_string(i);
    ASSERT_TRUE(direct.WriteSnapshot(direct_path).ok());

    EXPECT_EQ(ReadFileBytes(slice_path), ReadFileBytes(direct_path))
        << "shard " << i << " slice is not byte-identical to a build from "
        << "the restricted log";
  }
  std::filesystem::remove_all(dir);
}

// The writer slices a model's in-memory image: its blobs must be the
// bytes of the file path (write the monolithic snapshot, open it, slice)
// for every scan thread count, with and without commits.
TEST(ShardWriterTest, WriteFromModelMatchesSlicedMonolithicFile) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const std::string dir = MakeTempDir("from_model_vs_file");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CdConfig config;
    config.truncation_threshold = 0.001;
    config.scan_threads = threads;
    auto model =
        CreditDistributionModel::Build(data.graph, data.log, credit, config);
    ASSERT_TRUE(model.ok());
    for (const bool committed : {false, true}) {
      if (committed) {
        ASSERT_TRUE(model->SelectSeeds(3).ok());
      }
      const std::string label = std::to_string(threads) + " threads" +
                                (committed ? ", committed" : "");
      const std::string from_model = dir + "/model";
      const std::string from_file = dir + "/file";
      std::filesystem::create_directories(from_model);
      std::filesystem::create_directories(from_file);
      ShardManifest model_manifest;
      ASSERT_TRUE(ShardedSnapshotWriter(from_model, 3)
                      .WriteFromModel(*model, 1, &model_manifest)
                      .ok());
      const std::string mono_path = dir + "/mono.snap";
      ASSERT_TRUE(model->WriteSnapshot(mono_path).ok());
      auto mono = CreditSnapshotView::Open(mono_path);
      ASSERT_TRUE(mono.ok());
      ShardManifest file_manifest;
      ASSERT_TRUE(ShardedSnapshotWriter(from_file, 3)
                      .WriteFromView(*mono, 1, &file_manifest)
                      .ok());
      ASSERT_EQ(model_manifest.shard_files, file_manifest.shard_files);
      for (const std::string& name : model_manifest.shard_files) {
        EXPECT_EQ(ReadFileBytes(from_model + "/" + name),
                  ReadFileBytes(from_file + "/" + name))
            << label << " " << name;
      }
      EXPECT_EQ(ReadFileBytes(from_model + "/" + ManifestFileName(1)),
                ReadFileBytes(from_file + "/" + ManifestFileName(1)))
          << label;
      // Nothing but the generation: no monolithic temp file.
      std::size_t files = 0;
      for (const auto& entry :
           std::filesystem::directory_iterator(from_model)) {
        (void)entry;
        ++files;
      }
      EXPECT_EQ(files, model_manifest.shard_files.size() + 1) << label;
      std::filesystem::remove_all(from_model);
      std::filesystem::remove_all(from_file);
    }
  }
  std::filesystem::remove_all(dir);
}

// -------------------------------------------- cross-shard determinism

TEST(ShardRouterTest, GainAndTopKBitIdenticalAcrossShardCounts) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("router_determinism");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  OneShard mono_router(*mono);
  ShardRouter& monolithic = mono_router.router();
  const auto expected = monolithic.TopKSeeds(10);
  ASSERT_GT(expected.seeds.size(), 0u);

  for (std::size_t shards : {1u, 2u, 3u, 7u}) {
    const std::string shard_dir =
        MakeTempDir("router_s" + std::to_string(shards));
    const ShardedSnapshot sharded = SplitAndOpen(model, shard_dir, shards);
    EXPECT_EQ(sharded.views.size(), shards);
    ShardRouter router(sharded);

    monolithic.ResetSession();
    for (NodeId x = 0; x < data.log.num_users(); ++x) {
      ASSERT_EQ(router.MarginalGain(x), monolithic.MarginalGain(x))
          << "node " << x << " with " << shards << " shards";
    }

    const auto routed = router.TopKSeeds(10);
    EXPECT_EQ(routed.seeds, expected.seeds) << shards << " shards";
    EXPECT_EQ(routed.marginal_gains, expected.marginal_gains);
    EXPECT_EQ(routed.cumulative_spread, expected.cumulative_spread);
    EXPECT_EQ(routed.gain_evaluations, expected.gain_evaluations)
        << shards << " shards";

    // Session state after commits matches too: gains against a partial
    // seed set, and the telescoped spread.
    std::vector<NodeId> seeds(expected.seeds.begin(),
                              expected.seeds.begin() + 3);
    monolithic.ResetSession();
    router.ResetSession();
    const double monolithic_spread = monolithic.SpreadOf(seeds);
    const double router_spread = router.SpreadOf(seeds);
    EXPECT_EQ(router_spread, monolithic_spread);
    for (NodeId x = 0; x < data.log.num_users(); x += 7) {
      ASSERT_EQ(router.MarginalGain(x), monolithic.MarginalGain(x))
          << "post-commit node " << x << " with " << shards << " shards";
    }
    std::filesystem::remove_all(shard_dir);
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardRouterTest, WorkerPoolDoesNotChangeAnyBit) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("router_pool");
  const ShardedSnapshot sharded = SplitAndOpen(model, dir, 3);

  ShardRouter serial_router(sharded);
  WorkerPool pool(3);
  ShardRouter pooled_router(sharded, &pool);

  const auto serial = serial_router.TopKSeeds(8);
  const auto pooled = pooled_router.TopKSeeds(8);
  EXPECT_EQ(pooled.seeds, serial.seeds);
  EXPECT_EQ(pooled.marginal_gains, serial.marginal_gains);
  EXPECT_EQ(pooled.cumulative_spread, serial.cumulative_spread);
  EXPECT_EQ(pooled.gain_evaluations, serial.gain_evaluations);

  serial_router.ResetSession();
  pooled_router.ResetSession();
  for (NodeId x = 0; x < data.log.num_users(); x += 5) {
    const double want = serial_router.MarginalGain(x);
    ASSERT_EQ(pooled_router.MarginalGain(x), want) << "node " << x;
  }
  std::filesystem::remove_all(dir);
}

TEST(ShardRouterTest, SpreadBudgetAndDegenerateQueriesMatchEngine) {
  auto ex = testing_fixtures::MakePaperExample();
  EqualDirectCredit credit;
  const auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string dir = MakeTempDir("router_budget");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  OneShard monolithic(*mono);
  // One action: every shard count collapses to a single shard.
  const ShardedSnapshot sharded = SplitAndOpen(model, dir, 4);
  EXPECT_EQ(sharded.views.size(), 1u);
  ShardRouter router(sharded);

  const auto engine_budgeted = monolithic->TopKSeeds(6, 2.5);
  const auto routed_budgeted = router.TopKSeeds(6, 2.5);
  EXPECT_EQ(routed_budgeted.seeds, engine_budgeted.seeds);
  EXPECT_EQ(routed_budgeted.cumulative_spread,
            engine_budgeted.cumulative_spread);

  EXPECT_EQ(router.MarginalGain(kInvalidNode), 0.0);
  EXPECT_EQ(router.MarginalGain(ex.log.num_users() + 5), 0.0);
  router.CommitSeed(testing_fixtures::PaperExample::kV);
  EXPECT_EQ(router.MarginalGain(testing_fixtures::PaperExample::kV), 0.0);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------ manifest validation

TEST(ShardManifestTest, GlobalAuBelowAShardsLocalAuIsRefused) {
  // The global-au quotient pools inherit the blobs' fixed-point headroom
  // only because a user's global A_u counts at least the actions any
  // shard saw; a manifest claiming fewer is refused at open.
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("manifest_low_au");
  const ShardedSnapshot sharded = SplitAndOpen(model, dir, 3);
  ASSERT_GT(sharded.views.size(), 1u);
  const auto local_au = sharded.views[0].au();
  NodeId user = 0;
  while (user < local_au.size() && local_au[user] == 0) ++user;
  ASSERT_LT(user, local_au.size());

  ShardManifest manifest = sharded.manifest;
  manifest.au[user] = local_au[user] - 1;
  const std::string path = dir + "/" + ManifestFileName(1);
  ASSERT_TRUE(WriteShardManifest(manifest, path).ok());
  auto reopened = OpenShardedSnapshot(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().message().find("more actions than the "
                                             "manifest's A_u"),
            std::string::npos)
      << reopened.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(ShardManifestTest, RejectsTruncatedAndMangledManifests) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("manifest_corruption");
  SplitAndOpen(model, dir, 3);
  const std::string manifest_path = dir + "/" + ManifestFileName(1);
  const std::string good = ReadFileBytes(manifest_path);

  // Truncation at every eighth boundary must fail cleanly, never crash.
  for (std::size_t len = 8; len < good.size(); len += 64) {
    std::ofstream(manifest_path, std::ios::binary | std::ios::trunc)
        << good.substr(0, len);
    EXPECT_FALSE(ReadShardManifest(manifest_path).ok()) << "len " << len;
  }

  // Mangle range_begin[1] (the first boundary after the fixed 60-byte
  // head: magic 8 + version 4 + gen 8 + users 4 + actions 4 + fps 16 +
  // lambda 8 + vector length 8): ranges must be strictly ascending, and
  // the error carries a byte offset.
  std::string mangled = good;
  const std::uint32_t bogus = 0;  // range_begin[1] = 0 == range_begin[0]
  mangled.replace(64, 4, reinterpret_cast<const char*>(&bogus), 4);
  std::ofstream(manifest_path, std::ios::binary | std::ios::trunc)
      << mangled;
  auto overlapping = ReadShardManifest(manifest_path);
  ASSERT_FALSE(overlapping.ok());
  EXPECT_NE(overlapping.status().message().find("ascending"),
            std::string::npos)
      << overlapping.status().ToString();
  EXPECT_NE(overlapping.status().message().find("byte offset"),
            std::string::npos)
      << overlapping.status().ToString();

  // Restore the manifest, then break a shard blob: truncation changes
  // the file fingerprint, so the sharded open refuses before mapping.
  std::ofstream(manifest_path, std::ios::binary | std::ios::trunc) << good;
  ASSERT_TRUE(OpenShardedSnapshot(manifest_path).ok());
  const std::string shard_path = dir + "/" + ShardFileName(1, 1);
  const std::string shard_bytes = ReadFileBytes(shard_path);
  std::ofstream(shard_path, std::ios::binary | std::ios::trunc)
      << shard_bytes.substr(0, shard_bytes.size() - 16);
  auto truncated_shard = OpenShardedSnapshot(manifest_path);
  ASSERT_FALSE(truncated_shard.ok());
  EXPECT_NE(truncated_shard.status().message().find("fingerprint"),
            std::string::npos)
      << truncated_shard.status().ToString();

  // A missing blob fails at open, and a writer refuses an invalid
  // manifest outright.
  std::filesystem::remove(shard_path);
  EXPECT_FALSE(OpenShardedSnapshot(manifest_path).ok());
  auto manifest = ReadShardManifest(manifest_path);
  ASSERT_TRUE(manifest.ok());
  ShardManifest bad = *manifest;
  std::swap(bad.range_begin[1], bad.range_begin[2]);  // unsorted
  EXPECT_FALSE(WriteShardManifest(bad, dir + "/bad").ok());
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ partial opens

TEST(PartialOpenTest, AManagerForOneShardMapsExactlyThatShard) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("partial_footprint");
  const ShardedSnapshot whole = SplitAndOpen(model, dir, 4);
  const ShardManifest& m = whole.manifest;
  ASSERT_EQ(m.num_shards(), 4u);

  std::uint64_t total_bytes = 0;
  for (std::size_t i = 0; i < m.num_shards(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const std::uint64_t file_bytes =
        std::filesystem::file_size(dir + "/" + m.shard_files[i]);
    total_bytes += file_bytes;
    auto manager = GenerationManager::Open(dir, 4, /*recover=*/false,
                                           ShardRange::One(i));
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    GenerationManager::Session session(**manager);
    const ShardedSnapshot& opened = session.shards();
    EXPECT_EQ(opened.views.size(), 1u);
    EXPECT_EQ(opened.first_shard, i);
    EXPECT_FALSE(opened.whole());
    EXPECT_EQ(opened.mapped_bytes(), file_bytes);
    EXPECT_EQ(opened.view(i).num_actions(),
              m.range_begin[i + 1] - m.range_begin[i]);
    // Opening derives no pool; the first fwd_quotient() does, and the
    // served shard's global-au pool is the whole open's, bit for bit.
    EXPECT_EQ(opened.pool_bytes(), 0u);
    const auto pool = opened.view(i).fwd_quotient();
    EXPECT_EQ(opened.pool_bytes(), pool.size_bytes());
    const auto reference = whole.view(i).fwd_quotient();
    EXPECT_TRUE(std::equal(pool.begin(), pool.end(), reference.begin(),
                           reference.end()));
  }
  auto all = GenerationManager::Open(dir);
  ASSERT_TRUE(all.ok());
  GenerationManager::Session session(**all);
  EXPECT_EQ(session.shards().views.size(), 4u);
  EXPECT_TRUE(session.shards().whole());
  EXPECT_EQ(session.shards().mapped_bytes(), total_bytes);

  // A range the generation does not have is refused as a precondition,
  // not as damage.
  auto missing = GenerationManager::Open(dir, 4, /*recover=*/false,
                                         ShardRange::One(4));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kFailedPrecondition)
      << missing.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(PartialOpenTest, EachShardIsValidatedByTheProcessThatOpensIt) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("partial_corrupt");
  SplitAndOpen(model, dir, 4);
  const std::string manifest_path = dir + "/" + ManifestFileName(1);

  // Break shard 2's payload past the prelude: its A_u section count
  // (the u64 at byte 64). The file fingerprint (size + prelude) still
  // matches, so only the full view validation can catch it.
  const std::string shard_path = dir + "/" + ShardFileName(1, 2);
  std::string bytes = ReadFileBytes(shard_path);
  const std::uint64_t bogus_count = ~0ULL;
  bytes.replace(64, 8, reinterpret_cast<const char*>(&bogus_count), 8);
  std::ofstream(shard_path, std::ios::binary | std::ios::trunc) << bytes;

  EXPECT_TRUE(OpenShardedSnapshot(manifest_path, ShardRange::One(0)).ok());
  auto served = OpenShardedSnapshot(manifest_path, ShardRange::One(2));
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kCorruption)
      << served.status().ToString();
  auto whole = OpenShardedSnapshot(manifest_path);
  ASSERT_FALSE(whole.ok());
  EXPECT_EQ(whole.status().code(), StatusCode::kCorruption)
      << whole.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(PartialOpenTest, APartialManagerServesButCannotWriteOrRoute) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("partial_writer");
  SplitAndOpen(model, dir, 2);
  auto manager = GenerationManager::Open(dir, 4, /*recover=*/false,
                                         ShardRange::One(1));
  ASSERT_TRUE(manager.ok()) << manager.status().ToString();

  CdConfig config;
  config.truncation_threshold = 0.001;
  const Status ingest =
      (*manager)->IngestLog(data.log, data.graph, credit, config);
  EXPECT_EQ(ingest.code(), StatusCode::kFailedPrecondition)
      << ingest.ToString();
  const Status watch = (*manager)->StartWatch(
      [] { return Result<std::optional<ActionLog>>(std::nullopt); },
      data.graph, credit, config, std::chrono::milliseconds(10));
  EXPECT_EQ(watch.code(), StatusCode::kFailedPrecondition)
      << watch.ToString();
  EXPECT_EQ((*manager)->current_generation(), 1u);

  // A router over one shard of two would sum half of every gain.
  GenerationManager::Session session(**manager);
  EXPECT_DEATH(session.router(), "needs every shard");
  std::filesystem::remove_all(dir);
}

// -------------------------------------------------- generation swaps

TEST(GenerationManagerTest, IngestMatchesFullRebuildAndKeepsSessions) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const ActionLog prefix = PrefixLog(data.log, 0.6, /*drop_actions=*/5);
  const auto prefix_model = BuildModel(data.graph, prefix, credit, 0.001);
  const auto full_model = BuildModel(data.graph, data.log, credit, 0.001);

  const std::string dir = MakeTempDir("generation_ingest");
  SplitAndOpen(prefix_model, dir, 3);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  ASSERT_EQ((*manager)->current_generation(), 1u);

  // Monolithic references for both generations.
  const std::string prefix_path = dir + "/prefix.snap";
  const std::string full_path = dir + "/full.snap";
  ASSERT_TRUE(prefix_model.WriteSnapshot(prefix_path).ok());
  ASSERT_TRUE(full_model.WriteSnapshot(full_path).ok());
  auto prefix_view = CreditSnapshotView::Open(prefix_path);
  auto full_view = CreditSnapshotView::Open(full_path);
  ASSERT_TRUE(prefix_view.ok() && full_view.ok());
  OneShard prefix_router(*prefix_view);
  OneShard full_router(*full_view);

  GenerationManager::Session pinned(**manager);
  const auto before = pinned.router().TopKSeeds(6);
  EXPECT_EQ(before.seeds, prefix_router->TopKSeeds(6).seeds);

  CdConfig config;
  config.truncation_threshold = 0.001;
  IngestStats stats;
  ASSERT_TRUE((*manager)
                  ->IngestLog(data.log, data.graph, credit, config,
                              /*shard_threads=*/2, &stats)
                  .ok());
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.new_actions, 5u);
  EXPECT_GT(stats.replayed_tuples, 0u);
  EXPECT_EQ((*manager)->current_generation(), 2u);

  // The pinned session still answers from generation 1, bit-identically.
  EXPECT_EQ(pinned.generation(), 1u);
  const auto still_before = pinned.router().TopKSeeds(6);
  EXPECT_EQ(still_before.seeds, before.seeds);
  EXPECT_EQ(still_before.marginal_gains, before.marginal_gains);
  EXPECT_EQ((*manager)->retired_generations(), 1u);

  // A refresh swaps to generation 2, which matches a full rebuild bit
  // for bit — gains, seeds, evaluation counts.
  EXPECT_TRUE(pinned.Refresh());
  EXPECT_EQ(pinned.generation(), 2u);
  const auto after = pinned.router().TopKSeeds(6);
  const auto full = full_router->TopKSeeds(6);
  EXPECT_EQ(after.seeds, full.seeds);
  EXPECT_EQ(after.marginal_gains, full.marginal_gains);
  EXPECT_EQ(after.gain_evaluations, full.gain_evaluations);
  for (NodeId x = 0; x < data.log.num_users(); x += 11) {
    pinned.router().ResetSession();
    full_router->ResetSession();
    ASSERT_EQ(pinned.router().MarginalGain(x), full_router->MarginalGain(x));
  }

  // Every generation-2 blob is byte-identical to a snapshot built
  // directly from the restricted full log — the rescan replayed exactly.
  const ShardManifest& m2 = pinned.shards().manifest;
  for (std::size_t i = 0; i < m2.num_shards(); ++i) {
    std::vector<ActionId> actions(m2.range_begin[i + 1] -
                                  m2.range_begin[i]);
    std::iota(actions.begin(), actions.end(), m2.range_begin[i]);
    // Named: the model keeps a pointer to the log it was built from.
    const ActionLog restricted = data.log.RestrictToActions(actions);
    const auto direct = BuildModel(data.graph, restricted, credit, 0.001);
    const std::string direct_path = dir + "/direct" + std::to_string(i);
    ASSERT_TRUE(direct.WriteSnapshot(direct_path).ok());
    EXPECT_EQ(ReadFileBytes(dir + "/" + m2.shard_files[i]),
              ReadFileBytes(direct_path))
        << "generation-2 shard " << i;
  }

  // Re-ingesting the same log is a no-op; the retired generation is
  // reclaimed once no session pins it.
  ASSERT_TRUE(
      (*manager)->IngestLog(data.log, data.graph, credit, config).ok());
  EXPECT_EQ((*manager)->current_generation(), 2u);
  (*manager)->ReclaimRetired();
  EXPECT_EQ((*manager)->retired_generations(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(GenerationManagerTest, IngestReusesUntouchedShardBlobs) {
  // An append that lands entirely in the last shard's range must not
  // rewrite the other shards: their generation-1 blobs are
  // re-referenced by name in the generation-2 manifest.
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const ActionLog prefix = PrefixLog(data.log, 1.0, /*drop_actions=*/2);
  const auto prefix_model = BuildModel(data.graph, prefix, credit, 0.001);
  const std::string dir = MakeTempDir("generation_reuse");
  SplitAndOpen(prefix_model, dir, 3);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());

  CdConfig config;
  config.truncation_threshold = 0.001;
  IngestStats stats;
  ASSERT_TRUE((*manager)
                  ->IngestLog(data.log, data.graph, credit, config,
                              /*shard_threads=*/1, &stats)
                  .ok());
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.new_actions, 2u);

  GenerationManager::Session session(**manager);
  const ShardManifest& m2 = session.shards().manifest;
  ASSERT_EQ(m2.num_shards(), 3u);
  EXPECT_EQ(m2.shard_files[0], ShardFileName(1, 0)) << "shard 0 rewritten";
  EXPECT_EQ(m2.shard_files[1], ShardFileName(1, 1)) << "shard 1 rewritten";
  EXPECT_EQ(m2.shard_files[2], ShardFileName(2, 2));

  // The reused-blob generation still answers like a full rebuild.
  const auto full_model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string full_path = dir + "/full.snap";
  ASSERT_TRUE(full_model.WriteSnapshot(full_path).ok());
  auto full_view = CreditSnapshotView::Open(full_path);
  ASSERT_TRUE(full_view.ok());
  const auto routed = session.router().TopKSeeds(5);
  const auto full = OneShard(*full_view)->TopKSeeds(5);
  EXPECT_EQ(routed.seeds, full.seeds);
  EXPECT_EQ(routed.marginal_gains, full.marginal_gains);
  EXPECT_EQ(routed.gain_evaluations, full.gain_evaluations);
  std::filesystem::remove_all(dir);
}

TEST(GenerationManagerTest, SwapUnderConcurrentSessionsStaysConsistent) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const ActionLog prefix = PrefixLog(data.log, 0.5);
  const auto prefix_model = BuildModel(data.graph, prefix, credit, 0.001);

  const std::string dir = MakeTempDir("generation_concurrent");
  SplitAndOpen(prefix_model, dir, 2);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());

  // Expected seeds per generation, computed up front.
  std::vector<std::vector<NodeId>> expected(3);
  {
    GenerationManager::Session session(**manager);
    expected[1] = session.router().TopKSeeds(4).seeds;
  }
  {
    const auto full_model = BuildModel(data.graph, data.log, credit, 0.001);
    const std::string full_path = dir + "/full.snap";
    ASSERT_TRUE(full_model.WriteSnapshot(full_path).ok());
    auto full_view = CreditSnapshotView::Open(full_path);
    ASSERT_TRUE(full_view.ok());
    expected[2] = OneShard(*full_view)->TopKSeeds(4).seeds;
  }
  ASSERT_NE(expected[1], expected[2]);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      GenerationManager::Session session(**manager);
      int iteration = 0;
      while (!stop.load()) {
        const std::uint64_t generation = session.generation();
        const auto seeds = session.router().TopKSeeds(4).seeds;
        // The pinned generation cannot change mid-query, so the result
        // must match that generation's expectation exactly.
        if (seeds != expected[generation]) failures.fetch_add(1);
        if (++iteration % 3 == t) session.Refresh();
      }
    });
  }

  CdConfig config;
  config.truncation_threshold = 0.001;
  ASSERT_TRUE(
      (*manager)->IngestLog(data.log, data.graph, credit, config).ok());
  // Let the readers churn across the swap, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  (*manager)->ReclaimRetired();
  EXPECT_EQ((*manager)->retired_generations(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(GenerationManagerTest, WatcherIngestsAppendedLog) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const ActionLog prefix = PrefixLog(data.log, 0.5);
  const auto prefix_model = BuildModel(data.graph, prefix, credit, 0.001);

  const std::string dir = MakeTempDir("generation_watch");
  SplitAndOpen(prefix_model, dir, 2);
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());

  // The reload callback swaps from the (no-op) prefix to the full log —
  // the in-memory stand-in for a growing log file.
  std::atomic<bool> grown{false};
  CdConfig config;
  config.truncation_threshold = 0.001;
  (*manager)->StartWatch(
      [&]() -> Result<std::optional<ActionLog>> {
        return std::optional<ActionLog>(grown.load() ? data.log : prefix);
      },
      data.graph, credit, config, std::chrono::milliseconds(5));

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ((*manager)->current_generation(), 1u);  // prefix is a no-op
  grown.store(true);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*manager)->watch_ingest_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  (*manager)->StopWatch();
  EXPECT_TRUE((*manager)->last_watch_status().ok())
      << (*manager)->last_watch_status().ToString();
  EXPECT_EQ((*manager)->current_generation(), 2u);
  EXPECT_GE((*manager)->watch_ingest_count(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(GenerationManagerTest, RefreshFromDiskFollowsCurrentPointer) {
  auto data = MakeDataset(0.05);
  EqualDirectCredit credit;
  const ActionLog prefix = PrefixLog(data.log, 1.0, /*drop_actions=*/1);
  const auto model = BuildModel(data.graph, prefix, credit, 0.001);

  // Two externally written generations; the manager follows CURRENT.
  const std::string dir = MakeTempDir("refresh_from_disk");
  ShardedSnapshotWriter writer(dir, 2);
  ASSERT_TRUE(writer.WriteFromModel(model, 1).ok());
  ASSERT_TRUE(writer.WriteFromModel(model, 2).ok());
  ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());

  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  auto unchanged = (*manager)->RefreshFromDisk();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_FALSE(*unchanged);

  ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(2)).ok());
  auto swapped = (*manager)->RefreshFromDisk();
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(*swapped);
  EXPECT_EQ((*manager)->current_generation(), 2u);

  // Generation *numbers* legally recur on this path (CURRENT flipped
  // back), so Session::Refresh must detect the double swap 2 -> 1 by
  // publish sequence, never by manifest number or pointer — a session
  // that kept its old router here would be reading a reclaimable
  // generation.
  GenerationManager::Session session(**manager);
  EXPECT_EQ(session.generation(), 2u);
  const double gain = session.router().MarginalGain(0);
  ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  auto back = (*manager)->RefreshFromDisk();
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back);
  EXPECT_TRUE(session.Refresh());
  EXPECT_EQ(session.generation(), 1u);
  EXPECT_EQ(session.router().MarginalGain(0), gain);  // same content
  EXPECT_FALSE(session.Refresh());

  // Ingesting while generation 1 is current must number the new
  // generation PAST every manifest on disk (3, not 1+1=2): reusing 2
  // would truncate-rewrite gen-2 blobs in place — possibly under a
  // still-pinned session's mmaps.
  const std::string gen2_blob = dir + "/" + ShardFileName(2, 0);
  const std::string gen2_bytes = ReadFileBytes(gen2_blob);
  CdConfig config;
  config.truncation_threshold = 0.001;
  ASSERT_TRUE(
      (*manager)->IngestLog(data.log, data.graph, credit, config).ok());
  EXPECT_EQ((*manager)->current_generation(), 3u);
  EXPECT_EQ(ReadFileBytes(gen2_blob), gen2_bytes)
      << "ingest rewrote another generation's blob in place";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace influmax
