// Figure 5 of the paper: pairwise seed-set intersections (k = 50)
// between the IC, LT, and CD models, each with parameters learned from
// the training log. IC seeds come from the PMIA heuristic and LT seeds
// from LDAG (exactly the stand-ins the paper uses for its Flickr-sized
// dataset); CD seeds come from Algorithm 3.
#include <cstdio>

#include "bench_common.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "im/ldag.h"
#include "im/pmia.h"
#include "probability/em_learner.h"
#include "probability/lt_weights.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  bench::StandardOptions opts;
  FlagParser flags;
  bench::RegisterStandardFlags(&flags, &opts);
  if (const int rc = bench::ParseFlagsOrDie(&flags, argc, argv); rc != 0) {
    return rc == 2 ? 0 : rc;
  }
  const NodeId k = static_cast<NodeId>(opts.k);

  for (const auto& prepared : bench::PrepareRequestedDatasets(opts)) {
    const Graph& graph = prepared.data.graph;
    const ActionLog& train = prepared.split.train;

    // IC seeds: EM probabilities + PMIA.
    std::fprintf(stderr, "[fig5] %s: EM + PMIA...\n", prepared.name.c_str());
    auto em = LearnIcProbabilitiesEm(graph, train, EmConfig{});
    INFLUMAX_CHECK(em.ok()) << em.status();
    PmiaConfig pmia_config;
    pmia_config.theta = 1.0 / 320.0;
    auto pmia = PmiaModel::Build(graph, em->probabilities, pmia_config);
    INFLUMAX_CHECK(pmia.ok()) << pmia.status();
    auto ic_selection = pmia->SelectSeeds(k);
    INFLUMAX_CHECK(ic_selection.ok()) << ic_selection.status();

    // LT seeds: learned weights + LDAG.
    std::fprintf(stderr, "[fig5] %s: LT weights + LDAG...\n",
                 prepared.name.c_str());
    const EdgeProbabilities lt_weights =
        LearnLtWeights(graph, prepared.time_params);
    LdagConfig ldag_config;
    ldag_config.theta = 1.0 / 320.0;
    auto ldag = LdagModel::Build(graph, lt_weights, ldag_config);
    INFLUMAX_CHECK(ldag.ok()) << ldag.status();
    auto lt_selection = ldag->SelectSeeds(k);
    INFLUMAX_CHECK(lt_selection.ok()) << lt_selection.status();

    // CD seeds: Algorithm 3 over the scanned credit store.
    std::fprintf(stderr, "[fig5] %s: CD scan + greedy...\n",
                 prepared.name.c_str());
    const bench::CdRun cd = bench::RunCdPipeline(
        graph, train, prepared.time_params, opts.lambda, k, opts.threads);

    const std::vector<std::string> names = {"IC", "LT", "CD"};
    const std::vector<std::vector<NodeId>> seed_sets = {
        ic_selection->seeds, lt_selection->seeds, cd.selection.seeds};
    const auto matrix = SeedIntersectionMatrix(seed_sets);
    TablePrinter table({"", "IC", "LT", "CD"});
    for (std::size_t i = 0; i < names.size(); ++i) {
      std::vector<std::string> row = {names[i]};
      for (std::size_t j = 0; j < names.size(); ++j) {
        row.push_back(std::to_string(matrix[i][j]));
      }
      table.AddRow(row);
    }
    std::printf(
        "Figure 5 (%s): seed-set intersections for k = %u\n\n%s\n",
        prepared.name.c_str(), k, table.ToString().c_str());
    std::printf(
        "Paper shape: IC x LT and IC x CD empty; LT x CD overlap about "
        "50%%.\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
