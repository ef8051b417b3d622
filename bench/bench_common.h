#ifndef INFLUMAX_BENCH_BENCH_COMMON_H_
#define INFLUMAX_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>
#include <vector>

#include "actionlog/split.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/cd_evaluator.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "probability/time_params.h"

namespace influmax {
namespace bench {

/// Flags shared by every experiment binary. Defaults are sized so the
/// whole bench suite completes in minutes on a laptop; raise --scale to
/// approach the paper's dataset sizes.
struct StandardOptions {
  double scale = 1.0;
  std::int64_t k = 50;
  std::int64_t mc = 200;          // MC simulations per spread estimate
  double lambda = 0.001;          // CD truncation threshold
  std::int64_t seed = 1;
  std::int64_t threads = 0;       // 0 = all cores
  std::string dataset = "both";   // flixster | flickr | both
};

inline void RegisterStandardFlags(FlagParser* flags, StandardOptions* opts) {
  flags->AddDouble("scale", &opts->scale,
                   "dataset scale multiplier (1.0 = bench default)");
  flags->AddInt("k", &opts->k, "number of seeds to select");
  flags->AddInt("mc", &opts->mc, "Monte Carlo simulations per estimate");
  flags->AddDouble("lambda", &opts->lambda, "CD truncation threshold");
  flags->AddInt("seed", &opts->seed, "master random seed");
  flags->AddInt("threads", &opts->threads, "worker threads (0 = auto)");
  flags->AddString("dataset", &opts->dataset,
                   "flixster | flickr | both");
}

inline int ParseFlagsOrDie(FlagParser* flags, int argc, char** argv) {
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags->Usage(argv[0]).c_str());
    return 1;
  }
  if (flags->help_requested()) {
    std::printf("%s", flags->Usage(argv[0]).c_str());
    return 2;
  }
  return 0;
}

/// A fully prepared "Small"-style experiment dataset: graph + split log +
/// learned time parameters (ready for the Eq. 9 credit model).
struct PreparedDataset {
  std::string name;
  SyntheticDataset data;
  TrainTestSplit split;
  InfluenceTimeParams time_params;
};

inline PreparedDataset PrepareSmallDataset(const DatasetPreset& preset,
                                           std::uint64_t seed) {
  PreparedDataset prepared;
  prepared.name = preset.name;
  auto data = BuildPresetDataset(preset, seed);
  INFLUMAX_CHECK(data.ok()) << data.status();
  prepared.data = std::move(data).value();
  auto split = SplitByPropagationSize(prepared.data.log, {});
  INFLUMAX_CHECK(split.ok()) << split.status();
  prepared.split = std::move(split).value();
  auto params =
      LearnTimeParams(prepared.data.graph, prepared.split.train);
  INFLUMAX_CHECK(params.ok()) << params.status();
  prepared.time_params = std::move(params).value();
  return prepared;
}

/// The datasets requested by --dataset at the given scale.
inline std::vector<PreparedDataset> PrepareRequestedDatasets(
    const StandardOptions& opts, double extra_scale = 1.0) {
  std::vector<PreparedDataset> out;
  const double scale = opts.scale * extra_scale;
  if (opts.dataset == "flixster" || opts.dataset == "both") {
    out.push_back(PrepareSmallDataset(FlixsterSmallPreset(scale),
                                      static_cast<std::uint64_t>(opts.seed)));
  }
  if (opts.dataset == "flickr" || opts.dataset == "both") {
    out.push_back(PrepareSmallDataset(FlickrSmallPreset(scale),
                                      static_cast<std::uint64_t>(opts.seed)));
  }
  INFLUMAX_CHECK(!out.empty()) << "unknown --dataset value";
  return out;
}

/// Runs the full CD pipeline (scan + greedy) on a training log and
/// returns the selection plus timings — the unit of work most benches
/// repeat. `threads` (a bench's --threads) sizes the Algorithm 2 scan;
/// 0 = all cores.
struct CdRun {
  CreditDistributionModel::SeedSelection selection;
  double scan_seconds = 0.0;
  double select_seconds = 0.0;
  std::uint64_t credit_entries = 0;
  std::uint64_t credit_bytes = 0;
};

inline CdRun RunCdPipeline(const Graph& graph, const ActionLog& train,
                           const InfluenceTimeParams& params, double lambda,
                           NodeId k, std::int64_t threads) {
  CdRun run;
  TimeDecayDirectCredit credit(params);
  CdConfig config;
  config.truncation_threshold = lambda;
  config.scan_threads = static_cast<std::size_t>(threads);
  WallTimer scan_timer;
  auto model = CreditDistributionModel::Build(graph, train, credit, config);
  INFLUMAX_CHECK(model.ok()) << model.status();
  run.scan_seconds = scan_timer.ElapsedSeconds();
  run.credit_entries = model->credit_entries();
  run.credit_bytes = model->ApproxMemoryBytes();
  WallTimer select_timer;
  auto selection = model->SelectSeeds(k);
  INFLUMAX_CHECK(selection.ok()) << selection.status();
  run.select_seconds = select_timer.ElapsedSeconds();
  run.selection = std::move(selection).value();
  return run;
}

}  // namespace bench
}  // namespace influmax

#endif  // INFLUMAX_BENCH_BENCH_COMMON_H_
