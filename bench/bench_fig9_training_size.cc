// Figure 9 of the paper: convergence in training-data size — influence
// spread achieved (left axis) and number of "true seeds" discovered
// (right axis; true seeds = the seeds selected using the complete action
// log) as a function of the number of tuples used.
#include <cstdio>

#include "bench_common.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  bench::StandardOptions opts;
  opts.k = 50;
  opts.scale = 0.25;  // --scale 1.0 approaches the paper's tuple counts
  std::int64_t points = 4;
  FlagParser flags;
  bench::RegisterStandardFlags(&flags, &opts);
  flags.AddInt("points", &points, "number of tuple-budget points");
  if (const int rc = bench::ParseFlagsOrDie(&flags, argc, argv); rc != 0) {
    return rc == 2 ? 0 : rc;
  }

  std::vector<DatasetPreset> presets = {FlixsterLargePreset(opts.scale),
                                        FlickrLargePreset(opts.scale)};
  if (opts.dataset == "flixster") presets.pop_back();
  if (opts.dataset == "flickr") presets.erase(presets.begin());

  for (const DatasetPreset& preset : presets) {
    std::fprintf(stderr, "[fig9] generating %s...\n", preset.name.c_str());
    auto data =
        BuildPresetDataset(preset, static_cast<std::uint64_t>(opts.seed));
    INFLUMAX_CHECK(data.ok()) << data.status();
    auto params = LearnTimeParams(data->graph, data->log);
    INFLUMAX_CHECK(params.ok()) << params.status();

    // "True seeds": selected from the complete log.
    std::fprintf(stderr, "[fig9] %s: full-log reference run...\n",
                 preset.name.c_str());
    const bench::CdRun reference = bench::RunCdPipeline(
        data->graph, data->log, *params, opts.lambda,
        static_cast<NodeId>(opts.k), opts.threads);

    // Spread is measured by the full-log CD evaluator (the best proxy for
    // ground truth, as in Figure 6).
    TimeDecayDirectCredit credit(*params);
    auto evaluator =
        CdSpreadEvaluator::Build(data->graph, data->log, credit);
    INFLUMAX_CHECK(evaluator.ok()) << evaluator.status();

    const std::size_t total_tuples = data->log.num_tuples();
    std::printf(
        "Figure 9 (%s): spread and true seeds vs #training tuples "
        "(k = %lld, %zu tuples total)\n\n",
        preset.name.c_str(), static_cast<long long>(opts.k), total_tuples);
    TablePrinter table(
        {"#tuples", "influence spread", "true seeds discovered"});
    for (std::int64_t point = 1; point <= points; ++point) {
      const std::size_t budget = total_tuples * point / points;
      const ActionLog sample = SampleByTupleBudget(
          data->log, budget, static_cast<std::uint64_t>(opts.seed) + 31);
      auto sample_params = LearnTimeParams(data->graph, sample);
      INFLUMAX_CHECK(sample_params.ok()) << sample_params.status();
      const bench::CdRun run = bench::RunCdPipeline(
          data->graph, sample, *sample_params, opts.lambda,
          static_cast<NodeId>(opts.k), opts.threads);
      const double spread = evaluator->Spread(run.selection.seeds);
      const int true_seeds =
          SeedIntersectionSize(run.selection.seeds, reference.selection.seeds);
      table.AddRow({std::to_string(sample.num_tuples()),
                    FormatDouble(spread, 1), std::to_string(true_seeds)});
    }
    table.AddRow({std::to_string(total_tuples) + " (all)",
                  FormatDouble(evaluator->Spread(reference.selection.seeds),
                               1),
                  std::to_string(static_cast<int>(
                      reference.selection.seeds.size()))});
    std::printf("%s\n", table.ToString().c_str());
    std::printf(
        "Paper shape: both curves rise quickly and saturate well before "
        "the full log is used (1M of 6.5M tuples already matches the "
        "full-log seed quality on Flixster Large).\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
