// Figure 7 of the paper: running time (log scale in the paper) to select
// k seeds under the IC and LT models with MC greedy + CELF versus the CD
// model's scan + greedy. The paper reports 40h (IC) and 25h (LT) vs 3
// minutes (CD) on Flixster Small — several orders of magnitude. The
// bench uses a scaled-down dataset and MC budget so the MC-greedy side
// finishes at all; the orders-of-magnitude gap is what reproduces.
#include <cstdio>

#include "bench_common.h"
#include "eval/table_printer.h"
#include "im/greedy.h"
#include "im/spread_oracle.h"
#include "probability/em_learner.h"
#include "probability/lt_weights.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  bench::StandardOptions opts;
  opts.scale = 0.4;  // MC greedy is the bottleneck being demonstrated
  opts.k = 10;
  opts.mc = 500;
  opts.dataset = "flixster";
  FlagParser flags;
  bench::RegisterStandardFlags(&flags, &opts);
  if (const int rc = bench::ParseFlagsOrDie(&flags, argc, argv); rc != 0) {
    return rc == 2 ? 0 : rc;
  }
  const NodeId k_max = static_cast<NodeId>(opts.k);

  for (const auto& prepared : bench::PrepareRequestedDatasets(opts)) {
    const Graph& graph = prepared.data.graph;
    const ActionLog& train = prepared.split.train;

    std::fprintf(stderr, "[fig7] %s: learning parameters...\n",
                 prepared.name.c_str());
    auto em = LearnIcProbabilitiesEm(graph, train, EmConfig{});
    INFLUMAX_CHECK(em.ok()) << em.status();
    const EdgeProbabilities lt_weights =
        LearnLtWeights(graph, prepared.time_params);

    MonteCarloConfig mc;
    mc.num_simulations = static_cast<int>(opts.mc);
    mc.seed = static_cast<std::uint64_t>(opts.seed) + 7;
    mc.num_threads = static_cast<std::size_t>(opts.threads);

    // IC greedy + CELF.
    std::fprintf(stderr, "[fig7] %s: IC MC greedy (this is the slow one)\n",
                 prepared.name.c_str());
    WallTimer ic_timer;
    IcMonteCarloOracle ic_oracle(graph, em->probabilities, mc);
    const GreedyResult ic = SelectSeedsGreedy(ic_oracle, k_max);
    const double ic_seconds = ic_timer.ElapsedSeconds();

    // LT greedy + CELF.
    std::fprintf(stderr, "[fig7] %s: LT MC greedy\n", prepared.name.c_str());
    WallTimer lt_timer;
    LtMonteCarloOracle lt_oracle(graph, lt_weights, mc);
    const GreedyResult lt = SelectSeedsGreedy(lt_oracle, k_max);
    const double lt_seconds = lt_timer.ElapsedSeconds();

    // CD scan + greedy.
    WallTimer cd_timer;
    const bench::CdRun cd = bench::RunCdPipeline(
        graph, train, prepared.time_params, opts.lambda, k_max,
        opts.threads);
    const double cd_seconds = cd_timer.ElapsedSeconds();

    std::printf(
        "Figure 7 (%s): time to select k = %u seeds (MC = %lld "
        "simulations)\n\n",
        prepared.name.c_str(), k_max, static_cast<long long>(opts.mc));
    TablePrinter table(
        {"method", "seconds", "spread-evals", "speedup vs CD"});
    table.AddRow({"IC greedy+CELF", FormatDouble(ic_seconds, 2),
                  std::to_string(ic.oracle_calls),
                  FormatDouble(ic_seconds / cd_seconds, 1) + "x slower"});
    table.AddRow({"LT greedy+CELF", FormatDouble(lt_seconds, 2),
                  std::to_string(lt.oracle_calls),
                  FormatDouble(lt_seconds / cd_seconds, 1) + "x slower"});
    table.AddRow({"CD (scan+greedy)", FormatDouble(cd_seconds, 2),
                  std::to_string(cd.selection.gain_evaluations), "1x"});
    std::printf("%s\n", table.ToString().c_str());
    std::printf(
        "  CD breakdown: scan %.2fs, seed selection %.2fs\n"
        "Paper shape: CD is orders of magnitude faster (3 min vs 40 h on "
        "Flixster Small with 10k simulations and k = 50; the gap here "
        "shrinks only because --mc and --k are scaled down).\n\n",
        cd.scan_seconds, cd.select_seconds);
  }
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
