#ifndef INFLUMAX_TOOLS_SERVE_COMMON_H_
#define INFLUMAX_TOOLS_SERVE_COMMON_H_

// Helpers shared by the tools (select_seeds, predict_spread,
// serve_shards, shard_server): graph/log loading with binary-or-text
// dispatch, direct-credit model selection, error reporting,
// LatencyHistogram -> bench-record percentile plumbing, and the
// commands both serving CLIs answer on stdin: `failpoint`
// (docs/durability.md) and `metrics` with the --metrics_json /
// --metrics_prom dumps (docs/observability.md). Header-only; tools are
// single-TU binaries.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "actionlog/log_io.h"
#include "common/bench_json.h"
#include "common/failpoint.h"
#include "common/histogram.h"
#include "common/status.h"
#include "core/direct_credit.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/prom_text.h"
#include "obs/span.h"
#include "probability/time_params.h"

namespace influmax {

inline Result<Graph> LoadGraph(const std::string& path) {
  if (path.ends_with(".bin")) return ReadGraphBinary(path);
  return ReadEdgeListFile(path);
}

inline Result<ActionLog> LoadLog(const std::string& path) {
  if (path.ends_with(".bin")) return ReadActionLogBinary(path);
  return ReadActionLogFile(path);
}

struct CreditChoice {
  std::unique_ptr<InfluenceTimeParams> params;  // owns timedecay's state
  std::unique_ptr<DirectCreditModel> model;
};

inline Result<CreditChoice> MakeCredit(const std::string& name,
                                       const Graph& graph,
                                       const ActionLog& log) {
  CreditChoice choice;
  if (name == "equal") {
    choice.model = std::make_unique<EqualDirectCredit>();
    return choice;
  }
  if (name == "timedecay") {
    auto params = LearnTimeParams(graph, log);
    if (!params.ok()) return params.status();
    choice.params =
        std::make_unique<InfluenceTimeParams>(std::move(params).value());
    choice.model = std::make_unique<TimeDecayDirectCredit>(*choice.params);
    return choice;
  }
  return Status::InvalidArgument("unknown credit model '" + name +
                                 "' (want equal | timedecay)");
}

inline int Fail(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

/// Attaches a histogram's p50/p95/p99 (ns) to a bench record; the shared
/// LatencyHistogram (src/common/histogram.h) keeps the digest O(1) per
/// sample, so every per-query latency can be recorded.
inline BenchJsonRecord WithPercentiles(BenchJsonRecord record,
                                       const LatencyHistogram& hist) {
  if (hist.count() > 0) {
    record.has_percentiles = true;
    record.p50_ns = hist.Percentile(50.0);
    record.p95_ns = hist.Percentile(95.0);
    record.p99_ns = hist.Percentile(99.0);
  }
  return record;
}

/// One bench report line: a histogram of ns samples as p50/p95/p99 µs.
inline void PrintPercentiles(const char* label, const LatencyHistogram& hist) {
  std::printf("  %s: p50 %.3f us, p95 %.3f us, p99 %.3f us (%llu "
              "samples)\n",
              label, hist.Percentile(50.0) / 1e3, hist.Percentile(95.0) / 1e3,
              hist.Percentile(99.0) / 1e3,
              static_cast<unsigned long long>(hist.count()));
}

// ------------------------------------------------------------- metrics

/// A counter's value in a registry scrape; 0 when it was never created
/// (or under INFLUMAX_OBS_OFF, where the scrape is empty).
inline std::uint64_t CounterValue(const MetricsSnapshot& snap,
                                  const char* name) {
  const auto* counter = snap.FindCounter(name);
  return counter != nullptr ? counter->value : 0;
}

/// Always-on per-REPL-query telemetry of the serving REPL.
/// The engine/router gain probes are sampled (1 in kObsSampleEvery), so
/// a short interactive session may never trip them; these timers wrap
/// every REPL query exactly, which is cheap at REPL rate and guarantees
/// a live session's scrape carries query-latency percentiles
/// (docs/observability.md).
struct ServeQueryMetrics {
  Timer* gain;
  Timer* topk;
  Timer* commit;
  Timer* spread;
  Timer* reset;
};

inline const ServeQueryMetrics& GetServeQueryMetrics() {
  static const ServeQueryMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    ServeQueryMetrics m{};
    m.gain = reg.FindOrCreateTimer("serve.query.gain");
    m.topk = reg.FindOrCreateTimer("serve.query.topk");
    m.commit = reg.FindOrCreateTimer("serve.query.commit");
    m.spread = reg.FindOrCreateTimer("serve.query.spread");
    m.reset = reg.FindOrCreateTimer("serve.query.reset");
    return m;
  }();
  return metrics;
}

/// Human-readable table of a registry snapshot (the `metrics` REPL
/// command).
inline void PrintMetricsTable(const MetricsSnapshot& snap) {
  if (snap.counters.empty() && snap.gauges.empty() && snap.timers.empty()) {
    std::printf("no metrics recorded%s\n",
                kObsEnabled ? "" : " (built with INFLUMAX_OBS_OFF)");
    return;
  }
  if (!snap.counters.empty()) std::printf("counters:\n");
  for (const auto& c : snap.counters) {
    std::printf("  %-36s %llu\n", c.name.c_str(),
                static_cast<unsigned long long>(c.value));
  }
  if (!snap.gauges.empty()) std::printf("gauges:\n");
  for (const auto& g : snap.gauges) {
    std::printf("  %-36s %lld\n", g.name.c_str(),
                static_cast<long long>(g.value));
  }
  if (!snap.timers.empty()) {
    std::printf("timers (ns):%25s%12s%12s%12s%12s%12s\n", "count", "mean",
                "p50", "p95", "p99", "max");
  }
  for (const auto& t : snap.timers) {
    if (t.hist.count() == 0) continue;
    std::printf("  %-34s %llu%12.0f%12.0f%12.0f%12.0f%12llu\n",
                t.name.c_str(), static_cast<unsigned long long>(t.hist.count()),
                t.hist.mean(), t.hist.Percentile(50.0),
                t.hist.Percentile(95.0), t.hist.Percentile(99.0),
                static_cast<unsigned long long>(t.hist.max()));
  }
}

/// Most recent spans of the session's ring, oldest first (the
/// `metrics spans` REPL command).
inline void PrintSpans(const SpanRing& ring) {
  const std::vector<SpanRecord> spans = ring.Snapshot();
  if (spans.empty()) {
    std::printf("no spans recorded (ring capacity %zu, %llu total pushed)\n",
                ring.capacity(),
                static_cast<unsigned long long>(ring.total_pushed()));
    return;
  }
  std::printf("last %zu spans (of %llu pushed, oldest first):\n", spans.size(),
              static_cast<unsigned long long>(ring.total_pushed()));
  for (const SpanRecord& s : spans) {
    std::printf("  %-20s start_ns=%llu dur_ns=%llu detail=%llu\n",
                SpanNameString(s.name_id),
                static_cast<unsigned long long>(s.start_ns),
                static_cast<unsigned long long>(s.duration_ns),
                static_cast<unsigned long long>(s.detail));
  }
}

/// At-exit / on-demand metrics dump targets (--metrics_json,
/// --metrics_prom). DumpAll scrapes once and writes whichever paths are
/// set; with neither set it is a no-op, so the CLIs call it
/// unconditionally at exit and after every `metrics` command (the
/// "periodic" refresh follows the operator's queries, not a timer
/// thread).
struct MetricsDump {
  std::string json_path;
  std::string prom_path;

  int DumpAll() const {
    if (json_path.empty() && prom_path.empty()) return 0;
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    int rc = 0;
    if (!json_path.empty()) {
      std::vector<BenchJsonRecord> records;
      AppendMetricsJsonRecords(snap, &records);
      rc |= WriteBenchJson(json_path, records);
    }
    if (!prom_path.empty()) {
      std::FILE* out = std::fopen(prom_path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", prom_path.c_str());
        rc |= 1;
      } else {
        const std::string text = PrometheusText(snap);
        std::fwrite(text.data(), 1, text.size(), out);
        std::fclose(out);
      }
    }
    return rc;
  }
};

/// The `metrics [prom|spans]` command:
/// plain -> human table, `prom` -> Prometheus text on stdout, `spans` ->
/// the session span ring (the table when there is no ring). Refreshes
/// the --metrics_json/--metrics_prom dumps on every invocation.
inline void HandleMetricsCommand(std::istringstream& in,
                                 const SpanRing* ring = nullptr,
                                 const MetricsDump& dump = {}) {
  std::string sub;
  in >> sub;
  if (sub == "spans" && ring != nullptr) {
    PrintSpans(*ring);
  } else if (sub == "prom") {
    const std::string text =
        PrometheusText(MetricsRegistry::Global().Scrape());
    std::fwrite(text.data(), 1, text.size(), stdout);
  } else {
    PrintMetricsTable(MetricsRegistry::Global().Scrape());
  }
  dump.DumpAll();
}

/// The `failpoint list|arm NAME SPEC|disarm NAME|disarm all` command.
/// Always parsed: the subcommands print FailedPrecondition when the
/// build compiled failpoints out, rather than pretending to inject
/// anything.
inline void HandleFailpointCommand(std::istringstream& in) {
  std::string verb;
  in >> verb;
  if (verb == "list") {
    const auto names = FailpointCatalog();
    if (!FailpointsCompiledIn()) {
      std::printf("! failpoints are compiled out "
                  "(build with -DINFLUMAX_FAILPOINTS=ON)\n");
    } else if (names.empty()) {
      std::printf("# no failpoints armed or evaluated yet\n");
    }
    for (const std::string& name : names) {
      std::printf("%s\ttrips=%llu\n", name.c_str(),
                  static_cast<unsigned long long>(FailpointTripCount(name)));
    }
  } else if (verb == "arm") {
    std::string name;
    std::string spec_text;
    in >> name >> spec_text;
    if (name.empty() || spec_text.empty()) {
      std::printf("! usage: failpoint arm NAME SPEC (e.g. torn:128@1#2)\n");
      return;
    }
    auto spec = ParseFailpointSpec(spec_text);
    if (!spec.ok()) {
      std::printf("! %s\n", spec.status().ToString().c_str());
      return;
    }
    if (Status status = ArmFailpoint(name, *spec); !status.ok()) {
      std::printf("! %s\n", status.ToString().c_str());
      return;
    }
    std::printf("# armed %s=%s\n", name.c_str(), spec_text.c_str());
  } else if (verb == "disarm") {
    std::string name;
    in >> name;
    if (name.empty()) {
      std::printf("! usage: failpoint disarm NAME|all\n");
    } else if (name == "all") {
      DisarmAllFailpoints();
      std::printf("# all failpoints disarmed\n");
    } else {
      DisarmFailpoint(name);
      std::printf("# disarmed %s\n", name.c_str());
    }
  } else {
    std::printf("! usage: failpoint list | arm NAME SPEC | disarm NAME|all\n");
  }
}

}  // namespace influmax

#endif  // INFLUMAX_TOOLS_SERVE_COMMON_H_
