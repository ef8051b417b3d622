#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/cd_evaluator.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/generators.h"
#include "im/greedy.h"
#include "im/spread_oracle.h"
#include "reference_cd.h"
#include "serve/snapshot_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

CdConfig ExactScan() {
  CdConfig config;
  config.truncation_threshold = 0.0;
  return config;
}

// ------------------------------------------------- Scan vs paper example

TEST(CdScanTest, ReproducesPaperTotalCredits) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  const SnapshotData frozen = model->ToSnapshotData();
  const auto credit_of = [&](NodeId v, NodeId u) {
    return reference::CreditIn(frozen, 0, v, u);
  };
  // The paper's worked example: Gamma_{v,u} = 0.75.
  EXPECT_NEAR(credit_of(PaperExample::kV, PaperExample::kU), 0.75, 1e-12);
  // Other totals implied by the reconstruction:
  EXPECT_NEAR(credit_of(PaperExample::kV, PaperExample::kW), 1.0, 1e-12);
  EXPECT_NEAR(credit_of(PaperExample::kV, PaperExample::kT), 0.5, 1e-12);
  EXPECT_NEAR(credit_of(PaperExample::kV, PaperExample::kZ), 0.5, 1e-12);
  EXPECT_NEAR(credit_of(PaperExample::kY, PaperExample::kT), 0.5, 1e-12);
  // Gamma_{t,u} = gamma_{t,u} + Gamma_{t,z} * gamma_{z,u} = 0.25 + 0.25.
  EXPECT_NEAR(credit_of(PaperExample::kT, PaperExample::kU), 0.5, 1e-12);
  EXPECT_NEAR(credit_of(PaperExample::kZ, PaperExample::kU), 0.25, 1e-12);
  // No credit flows backwards.
  EXPECT_DOUBLE_EQ(credit_of(PaperExample::kU, PaperExample::kV), 0.0);
}

TEST(CdConfigTest, ValidateRejectsNonsenseKnobs) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;

  CdConfig negative_lambda;
  negative_lambda.truncation_threshold = -0.5;
  EXPECT_EQ(negative_lambda.Validate().code(), StatusCode::kInvalidArgument);

  // A negative int cast through size_t lands far beyond kMaxThreads.
  CdConfig negative_scan;
  negative_scan.scan_threads = static_cast<std::size_t>(-3);
  EXPECT_EQ(negative_scan.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(CreditDistributionModel::Build(ex.graph, ex.log, credit,
                                           negative_scan)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  CdConfig negative_select;
  negative_select.select_threads = static_cast<std::size_t>(-1);
  EXPECT_EQ(negative_select.Validate().code(),
            StatusCode::kInvalidArgument);

  CdConfig sane;
  sane.scan_threads = 8;
  sane.select_threads = CdConfig::kMaxThreads;  // the inclusive edge
  EXPECT_TRUE(sane.Validate().ok());
}

TEST(CdScanTest, RejectsMismatchedLog) {
  auto ex = MakePaperExample();
  ActionLogBuilder lb(3);
  lb.Add(0, 0, 1.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  EqualDirectCredit credit;
  EXPECT_FALSE(
      CreditDistributionModel::Build(ex.graph, *log, credit, ExactScan())
          .ok());
}

TEST(CdScanTest, TruncationDropsSmallCredits) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto exact =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(exact.ok());
  CdConfig truncated;
  truncated.truncation_threshold = 0.3;  // drops all 0.25-credit paths
  auto coarse =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, truncated);
  ASSERT_TRUE(coarse.ok());
  EXPECT_LT(coarse->credit_entries(), exact->credit_entries());
  EXPECT_LE(coarse->ApproxMemoryBytes(), exact->ApproxMemoryBytes());
}

// --------------------------------------- Marginal gain and Theorem 3

TEST(CdMarginalGainTest, MatchesEvaluatorSigmaForSingletons) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  // With S = {}, MarginalGain(x) == sigma_cd({x}).
  for (NodeId x = 0; x < ex.graph.num_nodes(); ++x) {
    EXPECT_NEAR(model->MarginalGain(x), evaluator->Spread({x}), 1e-12)
        << "node " << x;
  }
  // Hand value: sigma_cd({v}) = 1 + 1 + 0.5 + 0.5 + 0.75 = 3.75 (A_u = 1
  // for every participant).
  EXPECT_NEAR(model->MarginalGain(PaperExample::kV), 3.75, 1e-12);
}

TEST(CdMarginalGainTest, TheoremThreeHoldsAfterCommits) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());

  std::vector<NodeId> committed;
  for (NodeId seed : {PaperExample::kT, PaperExample::kY}) {
    // Before committing: incremental marginal gain must equal the
    // evaluator's sigma(S + x) - sigma(S) for EVERY candidate x.
    for (NodeId x = 0; x < ex.graph.num_nodes(); ++x) {
      if (std::find(committed.begin(), committed.end(), x) !=
          committed.end()) {
        continue;
      }
      std::vector<NodeId> with = committed;
      with.push_back(x);
      const double expected =
          evaluator->Spread(with) - evaluator->Spread(committed);
      EXPECT_NEAR(model->MarginalGain(x), expected, 1e-12)
          << "|S|=" << committed.size() << " x=" << x;
    }
    model->CommitSeed(seed);
    committed.push_back(seed);
  }
}

TEST(CdMarginalGainTest, LemmaTwoSubgraphCreditsMatchPaper) {
  // Commit t then z as seeds; the paper's Lemma 2 example says the credit
  // of v on u over the subgraph without {t, z} is 0.5, and 0.25 after w
  // is also removed.
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  model->CommitSeed(PaperExample::kT);
  model->CommitSeed(PaperExample::kZ);
  EXPECT_NEAR(reference::CreditIn(model->ToSnapshotData(), 0,
                                  PaperExample::kV, PaperExample::kU),
              0.5, 1e-12);
  model->CommitSeed(PaperExample::kW);
  EXPECT_NEAR(reference::CreditIn(model->ToSnapshotData(), 0,
                                  PaperExample::kV, PaperExample::kU),
              0.25, 1e-12);
}

TEST(CdMarginalGainTest, SeedsHaveZeroGainAfterCommit) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  model->CommitSeed(PaperExample::kV);
  // Gamma_{S,v}(a) = 1, so the (1 - SC) factor kills v's own gain.
  EXPECT_NEAR(model->MarginalGain(PaperExample::kV), 0.0, 1e-12);
}

TEST(CdMarginalGainTest, InactiveUserHasZeroGain) {
  GraphBuilder gb(3);
  gb.AddEdge(0, 1);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(3);  // user 2 performs nothing
  lb.Add(0, 0, 1.0);
  lb.Add(1, 0, 2.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(*graph, *log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->MarginalGain(2), 0.0);
}

// ------------------------------------------------------------ Evaluator

TEST(CdEvaluatorTest, PaperSetCreditExample) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  // Gamma_{{v,z},u} = 0.875 (paper, Section 4). Per-user credit of u for
  // S = {v, z} equals 0.875 / A_u = 0.875.
  const auto kappa =
      evaluator->PerUserCredit({PaperExample::kV, PaperExample::kZ});
  EXPECT_NEAR(kappa[PaperExample::kU], 0.875, 1e-12);
  // Seeds get kappa = 1.
  EXPECT_NEAR(kappa[PaperExample::kV], 1.0, 1e-12);
  EXPECT_NEAR(kappa[PaperExample::kZ], 1.0, 1e-12);
}

TEST(CdEvaluatorTest, EmptySeedSetHasZeroSpread) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  EXPECT_DOUBLE_EQ(evaluator->Spread({}), 0.0);
}

TEST(CdEvaluatorTest, FullSeedSetSpreadEqualsActiveUsers) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  // All six users seeded: kappa = 1 each.
  EXPECT_NEAR(evaluator->Spread({0, 1, 2, 3, 4, 5}), 6.0, 1e-12);
}

TEST(CdEvaluatorTest, DuplicateSeedsAreIdempotent) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  EXPECT_DOUBLE_EQ(evaluator->Spread({PaperExample::kV}),
                   evaluator->Spread({PaperExample::kV, PaperExample::kV}));
}

// ------------------------------------------------- Greedy + CELF (Alg 3)

TEST(CdSelectSeedsTest, IsOneShot) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->SelectSeeds(2).ok());
  auto second = model->SelectSeeds(2);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CdSelectSeedsTest, FirstSeedMaximizesSingletonSpread) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto selection = model->SelectSeeds(1);
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection->seeds.size(), 1u);
  double best = 0.0;
  for (NodeId x = 0; x < 6; ++x) best = std::max(best, evaluator->Spread({x}));
  EXPECT_NEAR(selection->cumulative_spread[0], best, 1e-12);
  EXPECT_EQ(selection->seeds[0], PaperExample::kV);  // sigma({v}) = 3.75
}

TEST(CdSelectSeedsTest, MatchesGenericCelfGreedyOnCdOracle) {
  // The specialized Algorithm 3-5 pipeline must select the same seeds,
  // with the same spreads, as a from-scratch greedy over the evaluator.
  auto graph = GeneratePreferentialAttachment({250, 3, 0.5}, 33);
  ASSERT_TRUE(graph.ok());
  CascadeConfig config;
  config.num_actions = 120;
  config.seed = 34;
  auto data = GenerateCascadeDataset(std::move(graph).value(), config);
  ASSERT_TRUE(data.ok());

  EqualDirectCredit credit;
  auto model = CreditDistributionModel::Build(data->graph, data->log, credit,
                                              ExactScan());
  ASSERT_TRUE(model.ok());
  auto fast = model->SelectSeeds(8);
  ASSERT_TRUE(fast.ok());

  auto evaluator = CdSpreadEvaluator::Build(data->graph, data->log, credit);
  ASSERT_TRUE(evaluator.ok());
  CdOracle oracle(*evaluator);
  const GreedyResult slow = SelectSeedsGreedy(oracle, 8);

  ASSERT_EQ(fast->seeds.size(), slow.seeds.size());
  for (std::size_t i = 0; i < fast->seeds.size(); ++i) {
    EXPECT_EQ(fast->seeds[i], slow.seeds[i]) << "position " << i;
    EXPECT_NEAR(fast->cumulative_spread[i], slow.cumulative_spread[i], 1e-8);
  }
  // CELF efficiency: far fewer gain evaluations than plain greedy's
  // k * n.
  EXPECT_LT(fast->gain_evaluations, 8u * 250u);
}

TEST(CdSelectSeedsTest, CumulativeSpreadMatchesEvaluatorPrefixes) {
  auto ex = MakePaperExample();
  EqualDirectCredit credit;
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto selection = model->SelectSeeds(4);
  ASSERT_TRUE(selection.ok());
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < selection->seeds.size(); ++i) {
    prefix.push_back(selection->seeds[i]);
    EXPECT_NEAR(selection->cumulative_spread[i], evaluator->Spread(prefix),
                1e-12);
  }
}

TEST(CdSelectSeedsTest, StopsWhenGainsExhausted) {
  // Single trace 0 -> 1: after seeding 0, node 1's activation is fully
  // credited to 0 (Gamma_{S,1} = 1), so its marginal gain is exactly 0
  // and greedy stops at one seed even when k = 5. Users 2 and 3 have no
  // data at all.
  GraphBuilder gb(4);
  gb.AddEdge(0, 1);
  auto graph = gb.Build();
  ASSERT_TRUE(graph.ok());
  ActionLogBuilder lb(4);
  lb.Add(0, 0, 1.0);
  lb.Add(1, 0, 2.0);
  auto log = lb.Build();
  ASSERT_TRUE(log.ok());
  EqualDirectCredit credit;
  auto model =
      CreditDistributionModel::Build(*graph, *log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto selection = model->SelectSeeds(5);
  ASSERT_TRUE(selection.ok());
  ASSERT_EQ(selection->seeds.size(), 1u);
  EXPECT_EQ(selection->seeds[0], 0u);
  EXPECT_NEAR(selection->cumulative_spread[0], 2.0, 1e-12);
}

TEST(CdSelectSeedsTest, TimeDecayCreditChangesNothingStructurally) {
  // The Eq. 9 credit model must run through the same machinery: greedy
  // output consistent with evaluator built on the same credit model.
  auto ex = MakePaperExample();
  auto params = LearnTimeParams(ex.graph, ex.log);
  ASSERT_TRUE(params.ok());
  TimeDecayDirectCredit credit(*params);
  auto model =
      CreditDistributionModel::Build(ex.graph, ex.log, credit, ExactScan());
  ASSERT_TRUE(model.ok());
  auto evaluator = CdSpreadEvaluator::Build(ex.graph, ex.log, credit);
  ASSERT_TRUE(evaluator.ok());
  auto selection = model->SelectSeeds(3);
  ASSERT_TRUE(selection.ok());
  std::vector<NodeId> prefix;
  for (std::size_t i = 0; i < selection->seeds.size(); ++i) {
    prefix.push_back(selection->seeds[i]);
    EXPECT_NEAR(selection->cumulative_spread[i], evaluator->Spread(prefix),
                1e-12);
  }
}

}  // namespace
}  // namespace influmax
