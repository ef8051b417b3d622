// Figure 8 of the paper: CD runtime (left plot) and memory usage (right
// plot) to select k = 50 seeds, as a function of the number of action-log
// tuples used for training, on the Large datasets. Training subsets are
// whole propagation traces drawn at random — exactly the paper's setup.
#include <cstdio>

#include "bench_common.h"
#include "common/memory.h"
#include "eval/table_printer.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  bench::StandardOptions opts;
  opts.k = 50;
  opts.scale = 0.25;  // --scale 1.0 approaches the paper's tuple counts
  std::int64_t points = 3;
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
    std::fprintf(stderr, "[fig8] generating %s...\n", preset.name.c_str());
    auto data =
        BuildPresetDataset(preset, static_cast<std::uint64_t>(opts.seed));
    INFLUMAX_CHECK(data.ok()) << data.status();
    auto params = LearnTimeParams(data->graph, data->log);
    INFLUMAX_CHECK(params.ok()) << params.status();

    const std::size_t total_tuples = data->log.num_tuples();
    std::printf(
        "Figure 8 (%s): runtime and memory vs #training tuples "
        "(k = %lld, lambda = %g, %zu tuples total)\n\n",
        preset.name.c_str(), static_cast<long long>(opts.k), opts.lambda,
        total_tuples);
    TablePrinter table({"#tuples", "scan (s)", "select (s)", "total (s)",
                        "UC entries", "UC bytes", "process RSS"});
    for (std::int64_t point = 1; point <= points; ++point) {
      const std::size_t budget = total_tuples * point / points;
      const ActionLog sample = SampleByTupleBudget(
          data->log, budget, static_cast<std::uint64_t>(opts.seed) + point);
      const bench::CdRun run = bench::RunCdPipeline(
          data->graph, sample, *params, opts.lambda,
          static_cast<NodeId>(opts.k), opts.threads);
      table.AddRow({std::to_string(sample.num_tuples()),
                    FormatDouble(run.scan_seconds, 2),
                    FormatDouble(run.select_seconds, 2),
                    FormatDouble(run.scan_seconds + run.select_seconds, 2),
                    std::to_string(run.credit_entries),
                    FormatBytes(run.credit_bytes),
                    FormatBytes(CurrentRssBytes())});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf(
        "Paper shape: both runtime and memory grow close to linearly in "
        "the tuple count, and the scan dominates the total time (e.g. "
        "11.6 of 15 minutes at 5M tuples on Flixster Large).\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
