// Fixed-point gain arithmetic (src/core/fixed_gain.h, docs/gain_kernel.md):
// the quotient-pool contract — fwd_quotient[e] equals
// ToFixed(fwd_credit[e] / au[fwd_node[e]]) over every snapshot producer
// (full build, IncrementalRescan, SliceShardData) and under a
// generation's global A_u — the error bound
// against the real-valued Theorem 3 sum, and the associativity the
// contract rests on: gains, TopKSeeds and what-if gains are bit-equal
// whatever order the shards' partials are summed in, and every gain of
// the seeded fixture hashes to one golden checksum on any build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "core/fixed_gain.h"
#include "datagen/cascade_generator.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "one_shard.h"
#include "reference_cd.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::OneShard;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

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

CreditSnapshotView WriteAndOpen(const CreditDistributionModel& model,
                                const std::string& path) {
  INFLUMAX_CHECK(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  INFLUMAX_CHECK(view.ok());
  return std::move(view).value();
}

/// First ~keep_fraction of every action's trace — the append-only prefix
/// shape IncrementalRescan requires.
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

/// Asserts the pool contract on an open view: every derived quotient is
/// the rounding of the division by `au` it replaces.
void ExpectQuotientPoolExact(const CreditSnapshotView& view,
                             std::span<const std::uint32_t> au) {
  const auto credit = view.fwd_credit();
  const auto node = view.fwd_node();
  const auto quot = view.fwd_quotient();
  ASSERT_EQ(quot.size(), view.num_entries());
  for (std::uint64_t e = 0; e < view.num_entries(); ++e) {
    ASSERT_EQ(quot[e], ToFixed(credit[e] / au[node[e]])) << "entry " << e;
  }
}

/// The same on a view that divides by its own A_u.
void ExpectQuotientPoolExact(const CreditSnapshotView& view) {
  ExpectQuotientPoolExact(view, view.au());
}

SyntheticDataset MakeDataset(double scale = 0.1) {
  auto data = BuildPresetDataset(FlixsterSmallPreset(scale));
  INFLUMAX_CHECK(data.ok());
  return std::move(data).value();
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ----------------------------------------------------- rounding points

TEST(GainKernelTest, FixedPointRoundingAndSlotTermClamp) {
  // One unit is 2^-48; halves round to even.
  EXPECT_EQ(ToFixed(1.0), FixedGain{1} << 48);
  EXPECT_EQ(ToFixed(0x1p-49), 0);          // 0.5 units -> 0
  EXPECT_EQ(ToFixed(3 * 0x1p-49), 2);      // 1.5 units -> 2
  EXPECT_EQ(ToFixed(0.0), 0);
  EXPECT_EQ(FromFixed(GainAccum{1} << 48), 1.0);
  EXPECT_EQ(FromFixed(GainAccum{1} << 100), 0x1p52);
  // Past the branch-free range the library rounding takes over.
  EXPECT_EQ(ToFixed(8.0), FixedGain{1} << 51);
  EXPECT_EQ(ToFixed(1000.5), (FixedGain{2001} << 47));
  EXPECT_EQ(ToFixed(-0.5), -(FixedGain{1} << 47));

  const FixedGain mga = ToFixed(0.75);
  EXPECT_EQ(SlotTerm(mga, 0.0), mga);
  EXPECT_EQ(SlotTerm(mga, 0.5), ToFixed(0.375));
  // (1 - SC) is clamped to [0, 1]: no negative term, none above mga.
  EXPECT_EQ(SlotTerm(mga, 1.0), 0);
  EXPECT_EQ(SlotTerm(mga, 1.0 + 0x1p-52), 0);
  EXPECT_EQ(SlotTerm(mga, -0.5), mga);
  EXPECT_EQ(SlotTerm(mga, std::nan("")), 0);
}

// -------------------------------------------------- producer exactness

TEST(GainKernelTest, SnapshotRoundTripStoresExactQuotients) {
  auto ex = testing_fixtures::MakePaperExample();
  EqualDirectCredit credit;
  const auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("quot_paper.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.num_entries(), 0u);
  ExpectQuotientPoolExact(view);
  std::remove(path.c_str());
}

TEST(GainKernelTest, RandomizedSnapshotStoresExactQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_random.snap");
  auto view = WriteAndOpen(model, path);
  EXPECT_GT(view.num_entries(), 0u);
  ExpectQuotientPoolExact(view);
  std::remove(path.c_str());
}

TEST(GainKernelTest, IncrementalRescanRegeneratesQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  CdConfig config;
  config.truncation_threshold = 0.0;
  const ActionLog prefix = PrefixLog(data.log, 0.6);
  ASSERT_LT(prefix.num_tuples(), data.log.num_tuples());
  auto old_model =
      CreditDistributionModel::Build(data.graph, prefix, credit, config);
  ASSERT_TRUE(old_model.ok());
  const std::string old_path = TempPath("quot_rescan_old.snap");
  auto view = WriteAndOpen(*old_model, old_path);
  const std::string delta_path = TempPath("quot_rescan_delta.snap");
  ASSERT_TRUE(IncrementalRescan(view, data.graph, data.log, credit, config,
                                delta_path)
                  .ok());
  auto delta = CreditSnapshotView::Open(delta_path);
  ASSERT_TRUE(delta.ok());
  ExpectQuotientPoolExact(*delta);
  std::remove(old_path.c_str());
  std::remove(delta_path.c_str());
}

TEST(GainKernelTest, SliceShardDataRegeneratesQuotients) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("quot_slice");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  const std::vector<ActionId> begins =
      PlanActionRanges(mono->action_entry_begin(), 3);
  for (std::size_t i = 0; i + 1 < begins.size(); ++i) {
    const SnapshotData slice =
        SliceShardData(*mono, begins[i], begins[i + 1]);
    const std::string slice_path = dir + "/slice" + std::to_string(i);
    ASSERT_TRUE(WriteSnapshotFile(slice, slice_path).ok());
    auto shard = CreditSnapshotView::Open(slice_path);
    ASSERT_TRUE(shard.ok());
    // A blob opened alone divides by its *local* au; a generation's
    // views divide by the global one.
    ExpectQuotientPoolExact(*shard);
  }
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------------- error bound

TEST(GainKernelTest, GainsWithinDocumentedBoundOfRealValuedSum) {
  // docs/gain_kernel.md: with E_x credit entries over x's A_x slots and
  // M_x the sum of x's per-slot mg_a(x),
  //   |gain - Theorem 3 sum| <= (E_x + 2 A_x) 2^-49 + 2^-51 M_x
  //                             + 2^-53 |gain|.
  // The reference sums the same doubles in long double, before and after
  // a few commits (overlay rows take the divide-and-round path).
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_bound.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);
  const auto au = view.au();
  const auto uo = view.user_offsets();
  const auto fwd_begin = view.fwd_begin();
  const auto fwd_count = view.fwd_count();
  const auto fwd_node = view.fwd_node();
  const auto fwd_credit = view.fwd_credit();
  const auto sc = view.slot_sc();
  double worst = 0.0;
  for (NodeId x = 0; x < view.num_users(); ++x) {
    if (au[x] == 0) continue;
    long double real = 0.0L;
    long double mga_sum = 0.0L;
    std::uint64_t entries = 0;
    for (std::uint64_t s = uo[x]; s < uo[x + 1]; ++s) {
      long double mga = 1.0L / au[x];
      for (std::uint64_t e = fwd_begin[s]; e < fwd_begin[s] + fwd_count[s];
           ++e) {
        mga += static_cast<long double>(fwd_credit[e]) / au[fwd_node[e]];
      }
      entries += fwd_count[s];
      mga_sum += mga;
      real += mga * (1.0L - sc[s]);
    }
    const double gain = engine.MarginalGain(x);
    const long double bound =
        (entries + 2.0L * au[x]) * 0x1p-49L + 0x1p-51L * mga_sum +
        0x1p-53L * std::fabs(static_cast<long double>(gain));
    const long double err = std::fabs(gain - real);
    ASSERT_LE(err, bound) << "node " << x;
    worst = std::max(worst, static_cast<double>(err));
  }
  EXPECT_LT(worst, 1e-12);

  // After commits the engine and the hash-table reference still agree
  // bit for bit.
  reference::CdModel live(data.graph, data.log, credit, 0.001);
  OneShard router(view);
  const auto seeds = router->TopKSeeds(5).seeds;
  for (const NodeId seed : seeds) {
    live.CommitSeed(seed);
    engine.CommitSeed(seed);
  }
  for (NodeId x = 0; x < view.num_users(); ++x) {
    ASSERT_TRUE(SameBits(engine.MarginalGain(x), live.MarginalGain(x)))
        << "node " << x;
    ASSERT_TRUE(SameBits(router->MarginalGain(x), live.MarginalGain(x)))
        << "node " << x;
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ router global pools

TEST(GainKernelTest, RouterGlobalPoolsKeepExactBitIdentity) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("quot_router");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  SnapshotQueryEngine engine(*mono);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    ShardedSnapshotWriter writer(dir, shards);
    ASSERT_TRUE(writer.WriteFromView(*mono, shards).ok());
    auto sharded = OpenShardedSnapshot(dir + "/" + ManifestFileName(shards));
    ASSERT_TRUE(sharded.ok());
    // Every view's pool is derived under the manifest's global A_u.
    for (std::size_t i = 0; i < sharded->views.size(); ++i) {
      SCOPED_TRACE("shard " + std::to_string(i));
      ExpectQuotientPoolExact(sharded->views[i], sharded->manifest.au);
      EXPECT_EQ(sharded->views[i].fwd_quotient().size(),
                sharded->views[i].num_entries());
    }
    ShardRouter router(*sharded);
    for (NodeId x = 0; x < mono->num_users(); ++x) {
      ASSERT_TRUE(SameBits(router.MarginalGain(x), engine.MarginalGain(x)))
          << "shards " << shards << " node " << x;
    }
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- associativity

/// `src` with its shards in `order`: a router over the result sums the
/// shards' partials in that order. The manifest moves with the views,
/// which span its A_u.
ShardedSnapshot PermuteShards(ShardedSnapshot src,
                              const std::vector<std::size_t>& order) {
  ShardedSnapshot out;
  out.dir = src.dir;
  out.manifest = std::move(src.manifest);
  for (const std::size_t i : order) {
    out.views.push_back(std::move(src.views[i]));
  }
  return out;
}

TEST(GainKernelTest, ShardPartialsSumToTheSameBitsInAnyOrder) {
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string dir = MakeTempDir("quot_order");
  const std::string mono_path = dir + "/mono.snap";
  ASSERT_TRUE(model.WriteSnapshot(mono_path).ok());
  auto mono = CreditSnapshotView::Open(mono_path);
  ASSERT_TRUE(mono.ok());
  const NodeId users = mono->num_users();
  constexpr NodeId kTopK = 50;
  constexpr std::size_t kWhatIf = 5;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // The monolithic reference: a 1-shard router, without a pool or on
    // a WorkerPool of `threads` workers.
    std::unique_ptr<WorkerPool> reference_pool;
    if (threads > 1) reference_pool = std::make_unique<WorkerPool>(threads);
    OneShard reference(*mono, reference_pool.get());
    const auto expected = reference->TopKSeeds(kTopK);
    ASSERT_EQ(expected.seeds.size(), kTopK);
    const std::vector<NodeId> what_if(expected.seeds.begin(),
                                      expected.seeds.begin() + kWhatIf);
    reference->ResetSession();
    std::vector<double> fresh(users);
    for (NodeId x = 0; x < users; ++x) fresh[x] = reference->MarginalGain(x);
    for (const NodeId seed : what_if) reference->CommitSeed(seed);
    std::vector<double> committed(users);
    for (NodeId x = 0; x < users; ++x) {
      committed[x] = reference->MarginalGain(x);
    }

    for (const std::size_t shards : {1, 2, 3, 7}) {
      const std::string sub = dir + "/s" + std::to_string(shards);
      std::filesystem::create_directories(sub);
      ShardedSnapshotWriter writer(sub, shards);
      ASSERT_TRUE(writer.WriteFromView(*mono, 1).ok());
      const std::string manifest = sub + "/" + ManifestFileName(1);
      std::vector<std::size_t> forward(
          OpenShardedSnapshot(manifest)->views.size());
      std::iota(forward.begin(), forward.end(), 0);
      std::vector<std::size_t> reversed(forward.rbegin(), forward.rend());
      std::vector<std::size_t> shuffled = forward;
      Rng rng(shards * 31 + threads);
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.NextBounded(i)]);
      }
      for (const auto& order : {forward, reversed, shuffled}) {
        SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                     std::to_string(threads) + " first shard " +
                     std::to_string(order[0]));
        auto opened = OpenShardedSnapshot(manifest);
        ASSERT_TRUE(opened.ok());
        const ShardedSnapshot permuted =
            PermuteShards(std::move(opened).value(), order);
        std::unique_ptr<WorkerPool> pool;
        if (threads > 1) pool = std::make_unique<WorkerPool>(threads);
        ShardRouter router(permuted, pool.get());

        for (NodeId x = 0; x < users; ++x) {
          ASSERT_TRUE(SameBits(router.MarginalGain(x), fresh[x]))
              << "node " << x;
        }
        const auto selection = router.TopKSeeds(kTopK);
        EXPECT_EQ(selection.seeds, expected.seeds);
        EXPECT_EQ(selection.marginal_gains, expected.marginal_gains);
        EXPECT_EQ(selection.cumulative_spread, expected.cumulative_spread);
        EXPECT_EQ(selection.gain_evaluations, expected.gain_evaluations);
        router.ResetSession();
        for (const NodeId seed : what_if) router.CommitSeed(seed);
        for (NodeId x = 0; x < users; ++x) {
          ASSERT_TRUE(SameBits(router.MarginalGain(x), committed[x]))
              << "what-if node " << x;
        }
      }
    }
  }
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------- golden checksum

/// FNV-1a over the bit patterns of `gains`, continuing from `h`.
std::uint64_t HashGains(std::uint64_t h, const std::vector<double>& gains) {
  for (const double g : gains) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(g);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(GainKernelTest, EveryGainMatchesGoldenChecksum) {
  // Every gain of the seeded fixture — fresh, along TopKSeeds(20), and
  // after five what-if commits — hashed bit for bit. Integer sums and
  // -ffp-contract=off make the value independent of the compiler's
  // vectorization and ISA choices, so a default build and a
  // -march=native build must both reproduce it.
  constexpr std::uint64_t kGolden = 0x9f7b3c90ed5ec115ULL;
  auto data = MakeDataset();
  EqualDirectCredit credit;
  const auto model = BuildModel(data.graph, data.log, credit, 0.001);
  const std::string path = TempPath("quot_golden.snap");
  auto view = WriteAndOpen(model, path);
  SnapshotQueryEngine engine(view);
  std::vector<double> gains(view.num_users());
  for (NodeId x = 0; x < view.num_users(); ++x) {
    gains[x] = engine.MarginalGain(x);
  }
  std::uint64_t h = HashGains(0xcbf29ce484222325ULL, gains);
  const auto selection = OneShard(view)->TopKSeeds(20);
  h = HashGains(h, selection.marginal_gains);
  engine.ResetSession();
  for (std::size_t i = 0; i < 5; ++i) engine.CommitSeed(selection.seeds[i]);
  for (NodeId x = 0; x < view.num_users(); ++x) {
    gains[x] = engine.MarginalGain(x);
  }
  h = HashGains(h, gains);
  EXPECT_EQ(h, kGolden) << "checksum 0x" << std::hex << h;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace influmax
