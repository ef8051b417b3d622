// Fault-injection chaos suite (docs/durability.md): crash the
// generation-swap protocol at every byte-offset class and protocol
// point, then assert the two recovery invariants — a reader sees the
// old or the new generation bit-identically, never a blend, and a
// restart after any injected crash recovers to a fully-valid
// generation. Built against the failpoint-enabled library mirror
// (influmax_fp), so this suite runs in the default ctest run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/retry.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/generation_manager.h"
#include "shard/recovery.h"
#include "shard/shard_manifest.h"
#include "shard/shard_writer.h"
#include "one_shard.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

namespace fs = std::filesystem;

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
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

std::uint64_t CounterValue(const std::string& name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

std::int64_t GaugeValue(const std::string& name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* gauge = snap.FindGauge(name);
  return gauge == nullptr ? 0 : gauge->value;
}

[[noreturn]] void ThrowingCrashHandler(const char* site) {
  throw FailpointCrash{site};
}

/// Built once: a generation-1 directory (3 shards of the prefix log)
/// plus the bit-exact TopK answers of both generations, from monolithic
/// serving (a 1-shard router), which the sharded router is proven
/// identical to.
struct ChaosWorld {
  SyntheticDataset data;
  EqualDirectCredit credit;
  CdConfig config;
  ActionLog prefix;
  std::string pristine;  // gen-1 directory, never mutated after setup
  SnapshotSeedSelection gen1_topk;
  SnapshotSeedSelection gen2_topk;
};

const ChaosWorld& World() {
  static const ChaosWorld* world = [] {
    auto* w = new ChaosWorld;
    auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
    INFLUMAX_CHECK(data.ok());
    w->data = std::move(data).value();
    w->config.truncation_threshold = 0.001;
    w->prefix = PrefixLog(w->data.log, 0.6, /*drop_actions=*/3);
    const auto prefix_model =
        BuildModel(w->data.graph, w->prefix, w->credit, 0.001);
    const auto full_model =
        BuildModel(w->data.graph, w->data.log, w->credit, 0.001);

    w->pristine = MakeTempDir("fault_pristine");
    ShardedSnapshotWriter writer(w->pristine, 3);
    INFLUMAX_CHECK(writer.WriteFromModel(prefix_model, 1).ok());
    INFLUMAX_CHECK(
        WriteCurrentManifestName(w->pristine, ManifestFileName(1)).ok());

    const std::string prefix_path = w->pristine + "/ref-prefix.snap";
    const std::string full_path = w->pristine + "/ref-full.snap";
    INFLUMAX_CHECK(prefix_model.WriteSnapshot(prefix_path).ok());
    INFLUMAX_CHECK(full_model.WriteSnapshot(full_path).ok());
    {
      auto view = CreditSnapshotView::Open(prefix_path);
      INFLUMAX_CHECK(view.ok());
      w->gen1_topk = testing_fixtures::OneShard(*view)->TopKSeeds(5);
      auto full_view = CreditSnapshotView::Open(full_path);
      INFLUMAX_CHECK(full_view.ok());
      w->gen2_topk =
          testing_fixtures::OneShard(*full_view)->TopKSeeds(5);
    }
    // The reference snapshots must not look like orphan blobs to the
    // recovery sweep — and they don't: the gen<g>-shard<i>.snap /
    // MANIFEST-<g> name parsers skip them. Keeping them in the
    // directory doubles as a test of that.
    INFLUMAX_CHECK(w->gen1_topk.seeds != w->gen2_topk.seeds ||
                   w->gen1_topk.marginal_gains != w->gen2_topk.marginal_gains);
    return w;
  }();
  return *world;
}

std::string CloneWorldDir(const std::string& name) {
  const std::string dir = MakeTempDir(name);
  for (const auto& entry : fs::directory_iterator(World().pristine)) {
    fs::copy(entry.path(), fs::path(dir) / entry.path().filename());
  }
  return dir;
}

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override {
    DisarmAllFailpoints();
    SetFailpointCrashHandler(nullptr);
    EnableFailpointTrace(false);
    (void)TakeFailpointTrace();
  }
};

// ------------------------------------------------------- framework

TEST_F(FaultTest, CompiledInAndCatalogued) {
  ASSERT_TRUE(FailpointsCompiledIn());
  static_assert(kFailpointsEnabled);
  ASSERT_TRUE(
      ArmFailpoint("mmap.open", {.mode = FailpointMode::kError}).ok());
  const auto catalog = FailpointCatalog();
  EXPECT_NE(std::find(catalog.begin(), catalog.end(), "mmap.open"),
            catalog.end());
  DisarmFailpoint("mmap.open");
}

TEST_F(FaultTest, ParseSpec) {
  auto spec = ParseFailpointSpec("torn:128");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mode, FailpointMode::kTorn);
  EXPECT_EQ(spec->arg, 128u);
  spec = ParseFailpointSpec("error@2#1");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mode, FailpointMode::kError);
  EXPECT_EQ(spec->skip, 2u);
  EXPECT_EQ(spec->limit, 1);
  spec = ParseFailpointSpec("delay:5");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mode, FailpointMode::kDelay);
  EXPECT_FALSE(ParseFailpointSpec("explode").ok());
  EXPECT_FALSE(ParseFailpointSpec("torn:notanumber").ok());
  EXPECT_FALSE(ArmFailpoint("x", FailpointSpec{}).ok());  // kOff spec
}

TEST_F(FaultTest, SkipAndLimitBudget) {
  ASSERT_TRUE(ArmFailpointsFromSpec("test.site=error@1#2").ok());
  using failpoint_internal::CheckSite;
  EXPECT_FALSE(CheckSite("test.site").has_value());  // skipped
  EXPECT_TRUE(CheckSite("test.site").has_value());   // fires
  EXPECT_TRUE(CheckSite("test.site").has_value());   // fires
  EXPECT_FALSE(CheckSite("test.site").has_value());  // budget exhausted
  EXPECT_EQ(FailpointTripCount("test.site"), 2u);
}

TEST_F(FaultTest, ErrorInjectionSurfacesAsIoError) {
  const std::string dir = CloneWorldDir("fault_mmap_error");
  ASSERT_TRUE(
      ArmFailpoint("mmap.open", {.mode = FailpointMode::kError}).ok());
  auto opened = OpenShardedSnapshot(dir + "/" + ManifestFileName(1));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  DisarmAllFailpoints();
  EXPECT_TRUE(OpenShardedSnapshot(dir + "/" + ManifestFileName(1)).ok());
  fs::remove_all(dir);
}

TEST_F(FaultTest, TornWriteCutsAtExactOffset) {
  const std::string dir = MakeTempDir("fault_torn_exact");
  const std::string path = dir + "/torn.bin";
  ASSERT_TRUE(ArmFailpointsFromSpec("test.torn=torn:21").ok());
  BinaryWriter writer(path, /*magic=*/0x544F524EULL, /*version=*/1);
  ASSERT_TRUE(writer.status().ok());
  writer.set_failpoint("test.torn");
  // Magic + version = 12 bytes, already queued; the cut lands inside
  // the second vector element, mid-call.
  writer.WriteVector(std::vector<std::uint64_t>{1, 2, 3});
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_EQ(FailpointTripCount("test.torn"), 1u);
  EXPECT_EQ(fs::file_size(path), 21u);
  fs::remove_all(dir);
}

// ------------------------------------------- unlink/cleanup on error

TEST_F(FaultTest, WriteSnapshotFileUnlinksPartialOutput) {
  const std::string dir = MakeTempDir("fault_unlink_snap");
  const auto model = BuildModel(World().data.graph, World().prefix,
                                World().credit, 0.001);
  ASSERT_TRUE(ArmFailpointsFromSpec("snapshot.write=torn:100#1").ok());
  const std::string path = dir + "/partial.snap";
  EXPECT_FALSE(model.WriteSnapshot(path).ok());
  EXPECT_FALSE(fs::exists(path)) << "partial output left behind";
  DisarmAllFailpoints();
  EXPECT_TRUE(model.WriteSnapshot(path).ok());
  fs::remove_all(dir);
}

TEST_F(FaultTest, WriteShardsUnlinksCompletedSiblingsOnManifestFailure) {
  const std::string dir = MakeTempDir("fault_unlink_shards");
  const auto model = BuildModel(World().data.graph, World().prefix,
                                World().credit, 0.001);
  ASSERT_TRUE(ArmFailpointsFromSpec("manifest.write=error").ok());
  ShardedSnapshotWriter writer(dir, 3);
  EXPECT_FALSE(writer.WriteFromModel(model, 1).ok());
  // All three blobs were fully written before the manifest failed; the
  // error path must remove them all.
  EXPECT_TRUE(fs::is_empty(dir)) << "partial generation left behind";
  fs::remove_all(dir);
}

// ------------------------------------------------- swap durability

TEST_F(FaultTest, CurrentNeverNamesAnUndurableGeneration) {
  // Satellite (c): the deterministic fsync-ordering harness. Trace every
  // site visit through one full ingest and assert the protocol order:
  // every blob fsync and the manifest fsync strictly precede the CURRENT
  // flip, and the flip itself is tmp-write -> tmp-fsync -> rename ->
  // dir-fsync. With that order, CURRENT can never name a generation
  // whose bytes are not yet durable.
  const std::string dir = CloneWorldDir("fault_fsync_order");
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  EnableFailpointTrace(true);
  ASSERT_TRUE((*manager)
                  ->IngestLog(World().data.log, World().data.graph,
                              World().credit, World().config,
                              /*shard_threads=*/1)
                  .ok());
  const std::vector<std::string> trace = TakeFailpointTrace();
  EnableFailpointTrace(false);

  const auto index_of = [&](const std::string& site, bool last) {
    std::ptrdiff_t found = -1;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (trace[i] == site) {
        found = static_cast<std::ptrdiff_t>(i);
        if (!last) break;
      }
    }
    return found;
  };
  const std::ptrdiff_t rename_at = index_of("current.rename", false);
  ASSERT_GE(rename_at, 0) << "ingest never flipped CURRENT";
  EXPECT_GT(index_of("snapshot.fsync", true), 0);
  EXPECT_LT(index_of("snapshot.fsync", true), rename_at);
  EXPECT_LT(index_of("manifest.fsync", true), rename_at);
  EXPECT_LT(index_of("current.fsync", true), rename_at);
  EXPECT_GT(index_of("current.dirsync", false), rename_at);
  EXPECT_LT(index_of("ingest.after_blobs", false),
            index_of("manifest.write", false));
  fs::remove_all(dir);
}

struct CrashScenario {
  const char* site;
  const char* spec;
};

// Every protocol point of the build->flip sequence, with torn-write
// cuts across the byte-offset classes (empty file, mid-header,
// mid-section, past-the-end no-ops included).
const CrashScenario kCrashMatrix[] = {
    {"snapshot.write", "torn:0"},
    {"snapshot.write", "torn:12"},
    {"snapshot.write", "torn:1000"},
    {"snapshot.write", "torncrash:0"},
    {"snapshot.write", "torncrash:57"},
    {"snapshot.write", "torncrash:4096"},
    {"snapshot.fsync", "error"},
    {"snapshot.fsync", "crash"},
    {"manifest.write", "torn:0"},
    {"manifest.write", "torn:10"},
    {"manifest.write", "torncrash:33"},
    {"manifest.fsync", "crash"},
    {"current.write", "torncrash:0"},
    {"current.write", "torncrash:1"},
    {"current.fsync", "crash"},
    {"current.rename", "error"},
    {"current.rename", "crash"},
    {"current.dirsync", "crash"},
    {"ingest.after_blobs", "error"},
    {"ingest.after_blobs", "crash"},
    {"ingest.after_manifest", "error"},
    {"ingest.after_manifest", "crash"},
    {"ingest.after_current", "error"},
    {"ingest.after_current", "crash"},
};

TEST_F(FaultTest, CrashAnywhereRecoversToOldOrNewBitIdentically) {
  const ChaosWorld& world = World();
  SetFailpointCrashHandler(&ThrowingCrashHandler);
  int scenario_index = 0;
  for (const CrashScenario& scenario : kCrashMatrix) {
    SCOPED_TRACE(std::string(scenario.site) + "=" + scenario.spec);
    const std::string dir =
        CloneWorldDir("fault_crash_" + std::to_string(scenario_index++));
    DisarmAllFailpoints();
    ASSERT_TRUE(ArmFailpointsFromSpec(std::string(scenario.site) + "=" +
                                      scenario.spec)
                    .ok());
    {
      auto manager = GenerationManager::Open(dir);
      ASSERT_TRUE(manager.ok());
      bool crashed = false;
      Status status;
      try {
        // shard_threads=1: the crash exception must unwind inline
        // through ParallelForDynamic, not escape a worker thread.
        status = (*manager)->IngestLog(world.data.log, world.data.graph,
                                       world.credit, world.config,
                                       /*shard_threads=*/1);
      } catch (const FailpointCrash& crash) {
        crashed = true;
        EXPECT_EQ(crash.site, scenario.site);
      }
      // Whatever happened, the in-process manager kept serving a
      // coherent generation (old on failure, new on success).
      GenerationManager::Session session(**manager);
      const auto served = session.router().TopKSeeds(5);
      const bool is_old = served.seeds == world.gen1_topk.seeds &&
                          served.marginal_gains ==
                              world.gen1_topk.marginal_gains;
      const bool is_new = served.seeds == world.gen2_topk.seeds &&
                          served.marginal_gains ==
                              world.gen2_topk.marginal_gains;
      EXPECT_TRUE(is_old || is_new) << "in-process blend after "
                                    << (crashed ? "crash" : status.message());
    }
    DisarmAllFailpoints();

    // "Restart": recover the directory, open fresh, and the served
    // generation must be bit-identical to old or new — never a blend.
    auto recovered = RecoverGenerationDir(dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    auto reopened = GenerationManager::Open(dir, 4, /*recover=*/true);
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    GenerationManager::Session session(**reopened);
    const auto served = session.router().TopKSeeds(5);
    const bool is_old =
        served.seeds == world.gen1_topk.seeds &&
        served.marginal_gains == world.gen1_topk.marginal_gains;
    const bool is_new =
        served.seeds == world.gen2_topk.seeds &&
        served.marginal_gains == world.gen2_topk.marginal_gains;
    EXPECT_TRUE(is_old || is_new) << "post-recovery blend";
    for (const auto& entry : fs::directory_iterator(dir)) {
      EXPECT_FALSE(entry.path().string().ends_with(".tmp"))
          << "temp leftover " << entry.path();
    }
    fs::remove_all(dir);
  }
}

// ------------------------------------------------- graceful degradation

TEST_F(FaultTest, IngestFailureQuarantinesAndKeepsServing) {
  const ChaosWorld& world = World();
  const std::string dir = CloneWorldDir("fault_ingest_degrade");
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  GenerationManager::Session pinned(**manager);

  const std::uint64_t failures_before = CounterValue("gen.ingest_failures");
  const std::uint64_t quarantined_before = CounterValue("gen.quarantined");
  ASSERT_TRUE(ArmFailpointsFromSpec("ingest.after_manifest=error#1").ok());
  Status status = (*manager)->IngestLog(world.data.log, world.data.graph,
                                        world.credit, world.config,
                                        /*shard_threads=*/1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(CounterValue("gen.ingest_failures"), failures_before + 1);
  EXPECT_EQ(CounterValue("gen.quarantined"), quarantined_before + 1);
  EXPECT_EQ((*manager)->current_generation(), 1u);

  // The attempt's outputs are quarantined, not littering the directory.
  bool quarantine_seen = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    quarantine_seen |= name.starts_with("QUARANTINE-2-");
    EXPECT_NE(name, ManifestFileName(2));
  }
  EXPECT_TRUE(quarantine_seen);

  // The pinned session never noticed.
  const auto served = pinned.router().TopKSeeds(5);
  EXPECT_EQ(served.seeds, world.gen1_topk.seeds);
  EXPECT_EQ(served.marginal_gains, world.gen1_topk.marginal_gains);

  // Disarmed, the next attempt succeeds and serves the new generation.
  DisarmAllFailpoints();
  ASSERT_TRUE((*manager)
                  ->IngestLog(world.data.log, world.data.graph, world.credit,
                              world.config, /*shard_threads=*/1)
                  .ok());
  ASSERT_TRUE(pinned.Refresh());
  const auto after = pinned.router().TopKSeeds(5);
  EXPECT_EQ(after.seeds, world.gen2_topk.seeds);
  EXPECT_EQ(after.marginal_gains, world.gen2_topk.marginal_gains);
  fs::remove_all(dir);
}

TEST_F(FaultTest, ReusedBlobFingerprintMismatchFailsBeforePublish) {
  // Satellite (f): the reuse-by-name path must re-verify the on-disk
  // blob against the manifest fingerprint it is about to re-vouch for.
  const ChaosWorld& world = World();
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
  ASSERT_TRUE(data.ok());
  const ActionLog prefix = PrefixLog(data->log, 1.0, /*drop_actions=*/2);
  const auto prefix_model =
      BuildModel(data->graph, prefix, world.credit, 0.001);
  const std::string dir = MakeTempDir("fault_reuse_rot");
  ShardedSnapshotWriter writer(dir, 3);
  ASSERT_TRUE(writer.WriteFromModel(prefix_model, 1).ok());
  ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());

  // Rot shard 0's blob (appended byte: the mmap'd pages are untouched,
  // the fingerprint is not). The full-log ingest reuses shards 0 and 1
  // by name — and must refuse to.
  {
    std::ofstream rot(dir + "/" + ShardFileName(1, 0),
                      std::ios::binary | std::ios::app);
    rot.put('\x5a');
  }
  CdConfig config;
  config.truncation_threshold = 0.001;
  Status status = (*manager)->IngestLog(data->log, data->graph, world.credit,
                                        config, /*shard_threads=*/1);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("no longer matches"), std::string::npos)
      << status.message();
  EXPECT_EQ((*manager)->current_generation(), 1u);
  fs::remove_all(dir);
}

TEST_F(FaultTest, RefreshRetriesTransientThenQuarantinesCorruption) {
  const ChaosWorld& world = World();
  const std::string dir = CloneWorldDir("fault_refresh");
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  RetryPolicy fast;
  fast.initial_backoff_ms = 1;
  fast.max_backoff_ms = 2;
  fast.budget_ms = 50;
  (*manager)->set_retry_policy(fast);

  // Transient: CURRENT unreadable exactly once — the in-call retry
  // heals it and the refresh reports "no change".
  const std::uint64_t attempts_before = CounterValue("retry.attempts");
  ASSERT_TRUE(ArmFailpointsFromSpec("current.read=error#1").ok());
  auto refreshed = (*manager)->RefreshFromDisk();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().message();
  EXPECT_FALSE(*refreshed);
  EXPECT_GE(CounterValue("retry.attempts"), attempts_before + 2);
  DisarmAllFailpoints();

  // Persistent corruption: an external writer published generation 2
  // whose blob then rotted. Refresh must fail, quarantine generation 2,
  // and keep serving generation 1; recovery then repoints CURRENT.
  {
    auto current = ReadCurrentManifestName(dir);
    ASSERT_TRUE(current.ok());
    auto shards = OpenShardedSnapshot(dir + "/" + *current);
    ASSERT_TRUE(shards.ok());
  }
  {
    auto manifest = ReadShardManifest(dir + "/" + ManifestFileName(1));
    ASSERT_TRUE(manifest.ok());
    // Fake generation 2: same contents under new names, then rot one
    // blob after the manifest was written.
    ShardManifest next = *manifest;
    next.generation = 2;
    for (std::size_t i = 0; i < next.shard_files.size(); ++i) {
      const std::string name = ShardFileName(2, i);
      fs::copy(dir + "/" + next.shard_files[i], dir + "/" + name);
      next.shard_files[i] = name;
    }
    ASSERT_TRUE(
        WriteShardManifest(next, dir + "/" + ManifestFileName(2)).ok());
    ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(2)).ok());
    std::ofstream rot(dir + "/" + ShardFileName(2, 0),
                      std::ios::binary | std::ios::app);
    rot.put('\x5a');
  }
  const std::uint64_t quarantined_before = CounterValue("gen.quarantined");
  refreshed = (*manager)->RefreshFromDisk();
  ASSERT_FALSE(refreshed.ok());
  EXPECT_EQ(refreshed.status().code(), StatusCode::kCorruption);
  EXPECT_EQ((*manager)->current_generation(), 1u);
  EXPECT_EQ(CounterValue("gen.quarantined"), quarantined_before + 1);
  EXPECT_FALSE(fs::exists(dir + "/" + ManifestFileName(2)));

  // Generation 1's blobs — shared by name with quarantined generation
  // 2's manifest? No: gen 2 had its own copies, so gen 1 is intact.
  const std::uint64_t recoveries_before = CounterValue("gen.recovery_events");
  auto report = RecoverGenerationDir(dir);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_TRUE(report->current_rewritten);
  EXPECT_EQ(report->generation, 1u);
  EXPECT_EQ(CounterValue("gen.recovery_events"), recoveries_before + 1);
  auto reopened = GenerationManager::Open(dir);
  ASSERT_TRUE(reopened.ok());
  GenerationManager::Session session(**reopened);
  const auto served = session.router().TopKSeeds(5);
  EXPECT_EQ(served.seeds, world.gen1_topk.seeds);
  fs::remove_all(dir);
}

TEST_F(FaultTest, WatcherRetriesTransientAndDegradesOnPersistent) {
  // Satellite (b): a reload failure is an error — counted and logged —
  // while a "no change" tick is healthy; persistent failure degrades
  // (generation keeps serving), recovery resets the gauge.
  const ChaosWorld& world = World();
  const std::string dir = CloneWorldDir("fault_watch");
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.initial_backoff_ms = 1;
  fast.max_backoff_ms = 2;
  fast.budget_ms = 20;
  (*manager)->set_retry_policy(fast);

  // 0 = healthy no-change, 1 = transient IoError once then log,
  // 2 = persistent parse failure.
  std::atomic<int> mode{0};
  std::atomic<int> transient_left{0};
  std::atomic<std::uint64_t> reloads{0};
  auto reload = [&]() -> Result<std::optional<ActionLog>> {
    reloads.fetch_add(1);
    switch (mode.load()) {
      case 1:
        if (transient_left.fetch_sub(1) > 0) {
          return Status::IoError("fault_test: transient reload");
        }
        return std::optional<ActionLog>(world.data.log);
      case 2:
        return Status::Corruption("fault_test: log no longer parses");
      default:
        return std::optional<ActionLog>(std::nullopt);
    }
  };
  const auto await = [&](auto predicate) {
    for (int i = 0; i < 2000 && !predicate(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(predicate());
  };

  const std::uint64_t reload_errors_before =
      CounterValue("watch.reload_errors");
  (*manager)->StartWatch(reload, world.data.graph, world.credit,
                         world.config, std::chrono::milliseconds(2),
                         /*shard_threads=*/1);
  // Healthy idle ticks: no reload errors, gauge stays at zero.
  await([&] { return reloads.load() >= 3; });
  EXPECT_TRUE((*manager)->last_watch_status().ok());
  EXPECT_EQ(CounterValue("watch.reload_errors"), reload_errors_before);

  // One transient failure heals in-tick: the ingest still lands.
  transient_left.store(1);
  mode.store(1);
  await([&] { return (*manager)->watch_ingest_count() >= 1; });
  EXPECT_EQ((*manager)->current_generation(), 2u);
  await([&] { return (*manager)->last_watch_status().ok(); });
  EXPECT_EQ(GaugeValue("watch.consecutive_errors"), 0);

  // Persistent parse failure: counted as reload errors, status surfaces,
  // consecutive-error gauge climbs — and generation 2 keeps serving.
  mode.store(2);
  await([&] {
    return CounterValue("watch.reload_errors") >= reload_errors_before + 2;
  });
  EXPECT_FALSE((*manager)->last_watch_status().ok());
  EXPECT_GE(GaugeValue("watch.consecutive_errors"), 1);
  EXPECT_EQ((*manager)->current_generation(), 2u);

  // Back to healthy: the degradation clears without a restart.
  mode.store(0);
  await([&] { return (*manager)->last_watch_status().ok(); });
  await([&] { return GaugeValue("watch.consecutive_errors") == 0; });
  (*manager)->StopWatch();
  fs::remove_all(dir);
}

// --------------------------------------------------------- recovery

TEST_F(FaultTest, RecoveryRemovesTempsAndOrphans) {
  const std::string dir = CloneWorldDir("fault_recover_sweep");
  // Pre-unlink-fix leftovers and an orphan blob of a crashed, never
  // manifested generation 7.
  { std::ofstream(dir + "/CURRENT.tmp") << "MANIFEST-9\n"; }
  { std::ofstream(dir + "/.mono-7.tmp") << "partial"; }
  { std::ofstream(dir + "/" + ShardFileName(7, 0)) << "orphan bytes"; }
  auto report = RecoverGenerationDir(dir);
  ASSERT_TRUE(report.ok()) << report.status().message();
  EXPECT_EQ(report->current_manifest, ManifestFileName(1));
  EXPECT_FALSE(report->current_rewritten);
  EXPECT_EQ(report->removed.size(), 3u);
  EXPECT_FALSE(fs::exists(dir + "/CURRENT.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/.mono-7.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/" + ShardFileName(7, 0)));
  // Recovery is idempotent: a second pass finds nothing to do.
  report = RecoverGenerationDir(dir);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->removed.empty());
  EXPECT_TRUE(report->quarantined.empty());
  fs::remove_all(dir);
}

TEST_F(FaultTest, RecoveryScanErrorReturnsCleanly) {
  const std::string dir = CloneWorldDir("fault_recover_err");
  ASSERT_TRUE(ArmFailpointsFromSpec("recover.scan=error#1").ok());
  auto report = RecoverGenerationDir(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kIoError);
  // The directory was not touched; a clean retry succeeds.
  report = RecoverGenerationDir(dir);
  ASSERT_TRUE(report.ok());
  fs::remove_all(dir);
}

TEST_F(FaultTest, RecoveryErrorsWhenNoValidGenerationExists) {
  const std::string dir = MakeTempDir("fault_recover_none");
  EXPECT_EQ(RecoverGenerationDir(dir).status().code(), StatusCode::kNotFound);
  { std::ofstream(dir + "/MANIFEST-1") << "not a manifest"; }
  { std::ofstream(dir + "/CURRENT") << "MANIFEST-1\n"; }
  auto report = RecoverGenerationDir(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace influmax
