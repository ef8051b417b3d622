// Command-line seed selection: load a graph + action log, pick the k
// most influential users with the chosen method, print one seed per line
// (id, marginal gain where the method provides one).
//
//   select_seeds --graph=d.graph.tsv --log=d.log.tsv --method=cd --k=50
//
// Methods: cd (credit distribution, the paper's algorithm), ic-pmia
// (EM-learned IC probabilities + PMIA), lt-ldag (learned LT weights +
// LDAG), degree, pagerank.
#include <cstdio>

#include "common/flags.h"
#include "common/timer.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "im/baselines.h"
#include "im/ldag.h"
#include "im/pmia.h"
#include "probability/em_learner.h"
#include "probability/lt_weights.h"
#include "probability/time_params.h"
#include "serve_common.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  std::string graph_path;
  std::string log_path;
  std::string method = "cd";
  int k = 50;
  double lambda = 0.001;
  FlagParser flags;
  flags.AddString("graph", &graph_path, "graph file (.tsv or .bin)");
  flags.AddString("log", &log_path, "action log file (.tsv or .bin)");
  flags.AddString("method", &method,
                  "cd | ic-pmia | lt-ldag | degree | pagerank");
  flags.AddInt("k", &k, "number of seeds");
  flags.AddDouble("lambda", &lambda, "CD truncation threshold");
  if (Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }
  if (graph_path.empty()) {
    std::fprintf(stderr, "--graph is required\n");
    return 1;
  }

  auto graph = LoadGraph(graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  WallTimer timer;
  if (method == "degree") {
    for (NodeId s : HighDegreeSeeds(*graph, static_cast<NodeId>(k))) {
      std::printf("%u\n", s);
    }
    std::fprintf(stderr, "degree: %d seeds in %.2fs\n", k,
                 timer.ElapsedSeconds());
    return 0;
  }
  if (method == "pagerank") {
    for (NodeId s : PageRankSeeds(*graph, static_cast<NodeId>(k))) {
      std::printf("%u\n", s);
    }
    std::fprintf(stderr, "pagerank: %d seeds in %.2fs\n", k,
                 timer.ElapsedSeconds());
    return 0;
  }

  // The remaining methods are data-based and need the log.
  if (log_path.empty()) {
    std::fprintf(stderr, "--log is required for method '%s'\n",
                 method.c_str());
    return 1;
  }
  auto log = LoadLog(log_path);
  if (!log.ok()) {
    std::fprintf(stderr, "%s\n", log.status().ToString().c_str());
    return 1;
  }

  if (method == "cd") {
    auto params = LearnTimeParams(*graph, *log);
    if (!params.ok()) {
      std::fprintf(stderr, "%s\n", params.status().ToString().c_str());
      return 1;
    }
    TimeDecayDirectCredit credit(*params);
    CdConfig config;
    config.truncation_threshold = lambda;
    auto model = CreditDistributionModel::Build(*graph, *log, credit, config);
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    auto selection = model->SelectSeeds(static_cast<NodeId>(k));
    if (!selection.ok()) {
      std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
      return 1;
    }
    for (std::size_t i = 0; i < selection->seeds.size(); ++i) {
      std::printf("%u\t%.4f\n", selection->seeds[i],
                  selection->marginal_gains[i]);
    }
    std::fprintf(stderr, "cd: %zu seeds in %.2fs (%llu credit entries)\n",
                 selection->seeds.size(), timer.ElapsedSeconds(),
                 static_cast<unsigned long long>(model->credit_entries()));
    return 0;
  }
  if (method == "ic-pmia") {
    auto em = LearnIcProbabilitiesEm(*graph, *log, EmConfig{});
    if (!em.ok()) {
      std::fprintf(stderr, "%s\n", em.status().ToString().c_str());
      return 1;
    }
    auto model = PmiaModel::Build(*graph, em->probabilities, PmiaConfig{});
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    auto selection = model->SelectSeeds(static_cast<NodeId>(k));
    if (!selection.ok()) {
      std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
      return 1;
    }
    for (std::size_t i = 0; i < selection->seeds.size(); ++i) {
      std::printf("%u\t%.4f\n", selection->seeds[i],
                  selection->marginal_gains[i]);
    }
    std::fprintf(stderr, "ic-pmia: %zu seeds in %.2fs\n",
                 selection->seeds.size(), timer.ElapsedSeconds());
    return 0;
  }
  if (method == "lt-ldag") {
    auto weights = LearnLtWeights(*graph, *log);
    if (!weights.ok()) {
      std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
      return 1;
    }
    auto model = LdagModel::Build(*graph, *weights, LdagConfig{});
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    auto selection = model->SelectSeeds(static_cast<NodeId>(k));
    if (!selection.ok()) {
      std::fprintf(stderr, "%s\n", selection.status().ToString().c_str());
      return 1;
    }
    for (std::size_t i = 0; i < selection->seeds.size(); ++i) {
      std::printf("%u\t%.4f\n", selection->seeds[i],
                  selection->marginal_gains[i]);
    }
    std::fprintf(stderr, "lt-ldag: %zu seeds in %.2fs\n",
                 selection->seeds.size(), timer.ElapsedSeconds());
    return 0;
  }
  std::fprintf(stderr, "unknown method '%s'\n", method.c_str());
  return 1;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
