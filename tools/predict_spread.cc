// Command-line spread prediction: load a graph + action log, read seed
// ids (one per line, extra columns ignored) from stdin or --seeds, and
// print the expected influence spread under the chosen model.
//
//   select_seeds --graph=g --log=l --method=cd --k=10 |
//       predict_spread --graph=g --log=l --model=cd
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "common/flags.h"
#include "core/cd_evaluator.h"
#include "core/direct_credit.h"
#include "probability/em_learner.h"
#include "probability/lt_weights.h"
#include "probability/time_params.h"
#include "propagation/monte_carlo.h"
#include "serve_common.h"

namespace influmax {
namespace {

Result<std::vector<NodeId>> ParseSeeds(std::istream& in, NodeId num_nodes) {
  std::vector<NodeId> seeds;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream iss(line);
    std::uint64_t id = 0;
    if (!(iss >> id) || id >= num_nodes) {
      return Status::InvalidArgument("bad seed line: '" + line + "'");
    }
    seeds.push_back(static_cast<NodeId>(id));
  }
  if (seeds.empty()) {
    return Status::InvalidArgument("no seeds provided");
  }
  return seeds;
}

int Main(int argc, char** argv) {
  std::string graph_path;
  std::string log_path;
  std::string seeds_path;
  std::string model = "cd";
  int mc = 1000;
  FlagParser flags;
  flags.AddString("graph", &graph_path, "graph file (.tsv or .bin)");
  flags.AddString("log", &log_path, "action log file (.tsv or .bin)");
  flags.AddString("seeds", &seeds_path,
                  "seed list file (default: read stdin)");
  flags.AddString("model", &model, "cd | ic | lt");
  flags.AddInt("mc", &mc, "Monte Carlo simulations (ic/lt models)");
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (graph_path.empty() || log_path.empty()) {
    std::fprintf(stderr, "--graph and --log are required\n");
    return 1;
  }

  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  auto log = LoadLog(log_path);
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    return 1;
  }

  Result<std::vector<NodeId>> seeds = Status::Internal("unset");
  if (seeds_path.empty()) {
    seeds = ParseSeeds(std::cin, graph->num_nodes());
  } else {
    std::ifstream file(seeds_path);
    if (!file.is_open()) {
      std::fprintf(stderr, "cannot open '%s'\n", seeds_path.c_str());
      return 1;
    }
    seeds = ParseSeeds(file, graph->num_nodes());
  }
  if (!seeds.ok()) {
    std::fprintf(stderr, "%s\n", seeds.status().ToString().c_str());
    return 1;
  }

  if (model == "cd") {
    auto params = LearnTimeParams(*graph, *log);
    if (!params.ok()) {
      std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
      return 1;
    }
    TimeDecayDirectCredit credit(*params);
    auto evaluator = CdSpreadEvaluator::Build(*graph, *log, credit);
    if (!evaluator.ok()) {
      std::fprintf(stderr, "%s\n", evaluator.status().ToString().c_str());
      return 1;
    }
    std::printf("sigma_cd(%zu seeds) = %.3f\n", seeds->size(),
                evaluator->Spread(*seeds));
    return 0;
  }
  MonteCarloConfig config;
  config.num_simulations = mc;
  if (model == "ic") {
    auto em = LearnIcProbabilitiesEm(*graph, *log, EmConfig{});
    if (!em.ok()) {
      std::fprintf(stderr, "%s\n", em.status().ToString().c_str());
      return 1;
    }
    const SpreadEstimate estimate =
        EstimateIcSpread(*graph, em->probabilities, *seeds, config);
    std::printf("sigma_ic(%zu seeds) = %.3f (stddev %.3f over %d runs)\n",
                seeds->size(), estimate.mean, estimate.stddev,
                estimate.simulations);
    return 0;
  }
  if (model == "lt") {
    auto weights = LearnLtWeights(*graph, *log);
    if (!weights.ok()) {
      std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
      return 1;
    }
    const SpreadEstimate estimate =
        EstimateLtSpread(*graph, *weights, *seeds, config);
    std::printf("sigma_lt(%zu seeds) = %.3f (stddev %.3f over %d runs)\n",
                seeds->size(), estimate.mean, estimate.stddev,
                estimate.simulations);
    return 0;
  }
  std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
  return 1;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
