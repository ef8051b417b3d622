// Randomized differential test of the live model against the hash-table
// reference (tests/reference_cd.h): over generator presets (plus one
// dataset with a huge action, for the sharded scan), truncation
// thresholds {0, 0.001} and scan_threads {1, 4},
// the library's MarginalGain, its gains after a seeded stream of
// CommitSeed calls, its SelectSeeds and its serialized snapshots must
// bit-equal the reference's.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "probability/time_params.h"
#include "serve/snapshot_writer.h"
#include "reference_cd.h"

namespace influmax {
namespace {

constexpr NodeId kTopK = 12;
constexpr std::size_t kCommits = 10;

struct Dataset {
  std::string name;
  SyntheticDataset data;
  InfluenceTimeParams params;
};

/// A cascade dataset cut down to a first action that is one huge trace
/// (every user, in id order) and as many of the cascades as make up
/// twice its size, so a multi-threaded Build scans the huge action
/// through the intra-action sharded path before the rest.
SyntheticDataset WithHugeAction(SyntheticDataset data) {
  const ActionLog& log = data.log;
  ActionLogBuilder builder(log.num_users());
  for (NodeId u = 0; u < log.num_users(); ++u) {
    builder.Add(u, /*action=*/0, static_cast<Timestamp>(u));
  }
  std::uint64_t tuples = 0;
  for (ActionId a = 0; a < log.num_actions() && tuples < 2 * log.num_users();
       ++a) {
    for (const ActionTuple& t : log.ActionTrace(a)) {
      builder.Add(t.user, log.OriginalActionId(a) + 1, t.time);
      ++tuples;
    }
  }
  auto built = builder.Build();
  INFLUMAX_CHECK(built.ok());
  data.log = std::move(built).value();
  INFLUMAX_CHECK(data.log.ActionSize(0) * 4 > data.log.num_tuples());
  return data;
}

const std::vector<Dataset>& Datasets() {
  static const auto* datasets = [] {
    auto* out = new std::vector<Dataset>();
    const auto add = [&](std::string name, SyntheticDataset data) {
      auto params = LearnTimeParams(data.graph, data.log);
      INFLUMAX_CHECK(params.ok());
      out->push_back(
          {std::move(name), std::move(data), std::move(params).value()});
    };
    for (const DatasetPreset& preset :
         {FlixsterSmallPreset(0.06), FlickrSmallPreset(0.04)}) {
      auto data = BuildPresetDataset(preset, /*seed_override=*/17);
      INFLUMAX_CHECK(data.ok());
      add(preset.name, std::move(data).value());
    }
    auto small = BuildPresetDataset(FlixsterSmallPreset(0.02), 23);
    INFLUMAX_CHECK(small.ok());
    add("huge_action", WithHugeAction(std::move(small).value()));
    return out;
  }();
  return *datasets;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string SnapshotBytes(const SnapshotData& data, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".snap";
  INFLUMAX_CHECK(WriteSnapshotFile(data, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// A seeded commit stream over users who acted: mostly fresh picks, some
/// users sharing an action with the previous pick, and repeats.
std::vector<NodeId> CommitStream(const ActionLog& log, std::uint64_t seed) {
  std::vector<NodeId> active;
  for (NodeId u = 0; u < log.num_users(); ++u) {
    if (log.ActionsPerformedBy(u) > 0) active.push_back(u);
  }
  INFLUMAX_CHECK(!active.empty());
  Rng rng(seed);
  std::vector<NodeId> stream;
  for (std::size_t i = 0; i < kCommits; ++i) {
    NodeId x = active[rng.NextBounded(active.size())];
    if (i % 3 == 1) {
      const auto actions = log.UserActions(stream.back());
      const auto trace =
          log.ActionTrace(actions[rng.NextBounded(actions.size())].action);
      x = trace[rng.NextBounded(trace.size())].user;
    } else if (i % 3 == 2) {
      x = stream[rng.NextBounded(stream.size())];
    }
    stream.push_back(x);
  }
  return stream;
}

/// What the reference answers for one (dataset, lambda): every user's
/// gain before and after each commit of the stream, the snapshot bytes
/// before and after the stream, and the greedy's selection.
struct Expected {
  std::vector<NodeId> stream;
  std::vector<std::vector<double>> gains;  // [commit + 1][user]
  std::uint64_t entries_after = 0;
  std::string bytes_before;
  std::string bytes_after;
  CreditDistributionModel::SeedSelection selection;
};

Expected RunReference(const Dataset& ds, const DirectCreditModel& credit,
                      double lambda) {
  const ActionLog& log = ds.data.log;
  Expected out;
  out.stream = CommitStream(log, 0x5EED ^ log.num_tuples());
  reference::CdModel ref(ds.data.graph, log, credit, lambda);
  out.bytes_before = SnapshotBytes(ref.ToSnapshotData(), "ref_before");
  const auto record = [&] {
    std::vector<double>& gains = out.gains.emplace_back();
    for (NodeId u = 0; u < log.num_users(); ++u) {
      gains.push_back(ref.MarginalGain(u));
    }
  };
  record();
  for (NodeId x : out.stream) {
    ref.CommitSeed(x);
    record();
  }
  out.entries_after = ref.store().total_entries();
  out.bytes_after = SnapshotBytes(ref.ToSnapshotData(), "ref_after");
  reference::CdModel greedy(ds.data.graph, log, credit, lambda);
  out.selection = greedy.SelectSeeds(kTopK);
  return out;
}

TEST(CdDifferentialTest, LiveModelMatchesHashTableReferenceBitForBit) {
  for (const Dataset& ds : Datasets()) {
    const TimeDecayDirectCredit credit(ds.params);
    const ActionLog& log = ds.data.log;
    for (const double lambda : {0.0, 0.001}) {
      const Expected expected = RunReference(ds, credit, lambda);
      ASSERT_GE(expected.selection.seeds.size(), 2u) << ds.name;
      for (const std::size_t scan_threads : {1u, 4u}) {
        const std::string label =
            ds.name + " lambda " + std::to_string(lambda) + " scan x" +
            std::to_string(scan_threads);
        CdConfig config;
        config.truncation_threshold = lambda;
        config.scan_threads = scan_threads;

        auto model =
            CreditDistributionModel::Build(ds.data.graph, log, credit, config);
        ASSERT_TRUE(model.ok()) << label;
        EXPECT_EQ(SnapshotBytes(model->ToSnapshotData(), "lib_before"),
                  expected.bytes_before)
            << label;
        for (std::size_t i = 0; i <= expected.stream.size(); ++i) {
          if (i > 0) model->CommitSeed(expected.stream[i - 1]);
          for (NodeId u = 0; u < log.num_users(); ++u) {
            ASSERT_TRUE(
                SameBits(model->MarginalGain(u), expected.gains[i][u]))
                << label << " after " << i << " commits, gain of " << u;
          }
        }
        EXPECT_EQ(model->credit_entries(), expected.entries_after) << label;
        EXPECT_EQ(SnapshotBytes(model->ToSnapshotData(), "lib_after"),
                  expected.bytes_after)
            << label;

        auto fresh =
            CreditDistributionModel::Build(ds.data.graph, log, credit, config);
        ASSERT_TRUE(fresh.ok()) << label;
        auto selection = fresh->SelectSeeds(kTopK);
        ASSERT_TRUE(selection.ok()) << label;
        const auto& want = expected.selection;
        EXPECT_EQ(selection->gain_evaluations, want.gain_evaluations)
            << label;
        ASSERT_EQ(selection->seeds, want.seeds) << label;
        for (std::size_t i = 0; i < want.seeds.size(); ++i) {
          EXPECT_TRUE(SameBits(selection->marginal_gains[i],
                               want.marginal_gains[i]))
              << label << " pick " << i;
          EXPECT_TRUE(SameBits(selection->cumulative_spread[i],
                               want.cumulative_spread[i]))
              << label << " pick " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace influmax
