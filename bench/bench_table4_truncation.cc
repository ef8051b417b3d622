// Table 4 of the paper: effect of the truncation threshold lambda on the
// CD pipeline — influence spread achieved, "true seeds" discovered
// (reference = smallest lambda), memory usage, and running time.
#include <cstdio>

#include "bench_common.h"
#include "common/memory.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"

namespace influmax {
namespace {

int Main(int argc, char** argv) {
  bench::StandardOptions opts;
  opts.k = 50;
  opts.scale = 0.15;  // the lambda=0.0001 row is memory-hungry by design
  opts.dataset = "flixster";
  FlagParser flags;
  bench::RegisterStandardFlags(&flags, &opts);
  if (const int rc = bench::ParseFlagsOrDie(&flags, argc, argv); rc != 0) {
    return rc == 2 ? 0 : rc;
  }

  std::vector<DatasetPreset> presets = {FlixsterLargePreset(opts.scale),
                                        FlickrLargePreset(opts.scale)};
  if (opts.dataset == "flixster") presets.pop_back();
  if (opts.dataset == "flickr") presets.erase(presets.begin());

  const std::vector<double> lambdas = {0.1, 0.01, 0.001, 0.0005, 0.0001};

  for (const DatasetPreset& preset : presets) {
    std::fprintf(stderr, "[table4] generating %s...\n", preset.name.c_str());
    auto data =
        BuildPresetDataset(preset, static_cast<std::uint64_t>(opts.seed));
    INFLUMAX_CHECK(data.ok()) << data.status();
    auto params = LearnTimeParams(data->graph, data->log);
    INFLUMAX_CHECK(params.ok()) << params.status();
    TimeDecayDirectCredit credit(*params);
    auto evaluator =
        CdSpreadEvaluator::Build(data->graph, data->log, credit);
    INFLUMAX_CHECK(evaluator.ok()) << evaluator.status();

    struct Row {
      double lambda;
      bench::CdRun run;
      double spread;
    };
    std::vector<Row> rows;
    for (double lambda : lambdas) {
      std::fprintf(stderr, "[table4] %s: lambda = %g...\n",
                   preset.name.c_str(), lambda);
      Row row;
      row.lambda = lambda;
      row.run = bench::RunCdPipeline(data->graph, data->log, *params, lambda,
                                     static_cast<NodeId>(opts.k),
                                     opts.threads);
      row.spread = evaluator->Spread(row.run.selection.seeds);
      rows.push_back(std::move(row));
    }
    // "True seeds" = seeds at the smallest lambda (the paper's reference
    // is lambda = 0.0001).
    const std::vector<NodeId>& reference = rows.back().run.selection.seeds;

    std::printf(
        "Table 4 (%s): effect of truncation threshold lambda (k = %lld)\n\n",
        preset.name.c_str(), static_cast<long long>(opts.k));
    TablePrinter table({"lambda", "influence spread", "true seeds",
                        "UC entries", "UC bytes", "runtime (s)"});
    for (const Row& row : rows) {
      table.AddRow(
          {FormatDouble(row.lambda, 4), FormatDouble(row.spread, 1),
           std::to_string(
               SeedIntersectionSize(row.run.selection.seeds, reference)),
           std::to_string(row.run.credit_entries),
           FormatBytes(row.run.credit_bytes),
           FormatDouble(row.run.scan_seconds + row.run.select_seconds, 2)});
    }
    std::printf("%s\n", table.ToString().c_str());
    std::printf(
        "Paper shape: spread and true-seed recovery saturate around "
        "lambda = 0.001 while memory and runtime keep climbing as lambda "
        "shrinks — 0.001 is the sweet spot the paper uses throughout.\n\n");
  }
  return 0;
}

}  // namespace
}  // namespace influmax

int main(int argc, char** argv) { return influmax::Main(argc, argv); }
