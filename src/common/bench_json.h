#ifndef INFLUMAX_COMMON_BENCH_JSON_H_
#define INFLUMAX_COMMON_BENCH_JSON_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace influmax {

/// One machine-readable benchmark result. `bench_micro --json` and
/// `serve_shards --bench --json` both emit this exact shape —
/// {name: {ns_per_op, bytes, threads}} — and CI archives it
/// (BENCH_micro.json) so the perf trajectory is diffable across PRs;
/// keep the two binaries on this one writer.
struct BenchJsonRecord {
  std::string name;
  double ns_per_op = 0.0;
  std::uint64_t bytes = 0;
  std::size_t threads = 1;
  /// Optional latency percentiles (ns), emitted when has_percentiles is
  /// set — serve_shards --bench fills them from a LatencyHistogram per
  /// query type. tools/bench_compare.py ignores unknown keys, so records
  /// with and without percentiles mix freely.
  bool has_percentiles = false;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  /// Optional plain value (counters and gauges from the metrics registry
  /// land here via AppendMetricsJsonRecords), emitted when has_value is
  /// set. tools/bench_compare.py ignores it.
  bool has_value = false;
  double value = 0.0;
  /// Optional sample count and max (ns), emitted when has_count is set —
  /// registry timers carry them next to their percentiles.
  bool has_count = false;
  std::uint64_t count = 0;
  double max_ns = 0.0;
};

/// Writes `records` as the JSON object above. Returns 0, or 1 (with a
/// stderr message) when the file cannot be opened.
inline int WriteBenchJson(const std::string& path,
                          const std::vector<BenchJsonRecord>& records) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    std::fprintf(out, "  \"%s\": {\"ns_per_op\": %.3f, \"bytes\": %llu, "
                      "\"threads\": %zu",
                 records[i].name.c_str(), records[i].ns_per_op,
                 static_cast<unsigned long long>(records[i].bytes),
                 records[i].threads);
    if (records[i].has_percentiles) {
      std::fprintf(out,
                   ", \"p50_ns\": %.3f, \"p95_ns\": %.3f, \"p99_ns\": %.3f",
                   records[i].p50_ns, records[i].p95_ns, records[i].p99_ns);
    }
    if (records[i].has_value) {
      std::fprintf(out, ", \"value\": %.3f", records[i].value);
    }
    if (records[i].has_count) {
      std::fprintf(out, ", \"count\": %llu, \"max_ns\": %.3f",
                   static_cast<unsigned long long>(records[i].count),
                   records[i].max_ns);
    }
    std::fprintf(out, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  return 0;
}

}  // namespace influmax

#endif  // INFLUMAX_COMMON_BENCH_JSON_H_
