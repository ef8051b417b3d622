// Observability layer (src/obs/, docs/observability.md): registry
// correctness, per-thread shard merge determinism, shard reuse across
// thread lifetimes, span ring wraparound, Prometheus text output,
// bench-json record shapes, the engine's sampled gain probe, and
// concurrent sessions recording across a generation swap (the tsan
// target).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/logging.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "obs/metrics.h"
#include "obs/prom_text.h"
#include "obs/span.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_writer.h"
#include "one_shard.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string MakeTempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

CreditDistributionModel BuildModel(const Graph& graph, const ActionLog& log,
                                   const DirectCreditModel& credit,
                                   double lambda = 0.0) {
  CdConfig config;
  config.truncation_threshold = lambda;
  auto model = CreditDistributionModel::Build(graph, log, credit, config);
  INFLUMAX_CHECK(model.ok());
  return std::move(model).value();
}

// ------------------------------------------------- histogram satellite

TEST(HistogramTest, SumMaxTrackRecordsAndReset) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.mean(), 0.0);
  hist.Record(10);
  hist.Record(30);
  hist.Record(20);
  EXPECT_EQ(hist.sum(), 60u);
  EXPECT_EQ(hist.max(), 30u);
  EXPECT_DOUBLE_EQ(hist.mean(), 20.0);
  hist.Reset();
  EXPECT_EQ(hist.sum(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.count(), 0u);
}

TEST(HistogramTest, MergeIsOrderIndependentIncludingSumMax) {
  // sum/max are uint64, so merging in any order must give identical
  // results — the property the sharded scrape and the bench's per-thread
  // digest merge both rely on.
  LatencyHistogram a, b, c;
  for (std::uint64_t v : {1u, 7u, 500u, 123456u}) a.Record(v);
  for (std::uint64_t v : {2u, 900u}) b.Record(v);
  for (std::uint64_t v : {3u, 88u, 1u << 20}) c.Record(v);

  LatencyHistogram abc;
  abc.Merge(a);
  abc.Merge(b);
  abc.Merge(c);
  LatencyHistogram cba;
  cba.Merge(c);
  cba.Merge(b);
  cba.Merge(a);
  EXPECT_EQ(abc.count(), cba.count());
  EXPECT_EQ(abc.sum(), cba.sum());
  EXPECT_EQ(abc.max(), cba.max());
  for (std::size_t i = 0; i < LatencyHistogram::num_buckets(); ++i) {
    EXPECT_EQ(abc.bucket_count(i), cba.bucket_count(i)) << "bucket " << i;
  }
}

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  // Public bucket API contract: BucketUpperBound is inclusive, and every
  // value lands in a bucket whose bound is >= the value while the
  // previous bucket's bound is < it.
  for (std::uint64_t v : {0u, 1u, 31u, 32u, 33u, 1000u, 123456789u}) {
    const std::size_t b = LatencyHistogram::BucketIndexOf(v);
    EXPECT_GE(LatencyHistogram::BucketUpperBound(b), static_cast<double>(v));
    if (b > 0) {
      EXPECT_LT(LatencyHistogram::BucketUpperBound(b - 1),
                static_cast<double>(v));
    }
  }
}

// --------------------------------------------------- metrics registry

TEST(MetricsRegistryTest, CounterGaugeTimerBasics) {
  MetricsRegistry reg;
  Counter* c = reg.FindOrCreateCounter("test.counter");
  Gauge* g = reg.FindOrCreateGauge("test.gauge");
  Timer* t = reg.FindOrCreateTimer("test.timer");
  c->Add(5);
  c->Increment();
  g->Set(42);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 40);
  t->Record(100);
  t->Record(300);

  const MetricsSnapshot snap = reg.Scrape();
  ASSERT_NE(snap.FindCounter("test.counter"), nullptr);
  EXPECT_EQ(snap.FindCounter("test.counter")->value, 6u);
  ASSERT_NE(snap.FindGauge("test.gauge"), nullptr);
  EXPECT_EQ(snap.FindGauge("test.gauge")->value, 40);
  ASSERT_NE(snap.FindTimer("test.timer"), nullptr);
  EXPECT_EQ(snap.FindTimer("test.timer")->hist.count(), 2u);
  EXPECT_EQ(snap.FindTimer("test.timer")->hist.sum(), 400u);
  EXPECT_EQ(snap.FindTimer("test.timer")->hist.max(), 300u);
  EXPECT_EQ(snap.FindCounter("no.such"), nullptr);
}

TEST(MetricsRegistryTest, FindOrCreateInternsByName) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindOrCreateCounter("dup"), reg.FindOrCreateCounter("dup"));
  EXPECT_EQ(reg.FindOrCreateGauge("dup"), reg.FindOrCreateGauge("dup"));
  EXPECT_EQ(reg.FindOrCreateTimer("dup"), reg.FindOrCreateTimer("dup"));
  EXPECT_NE(reg.FindOrCreateCounter("dup"), reg.FindOrCreateCounter("other"));
}

TEST(MetricsRegistryTest, ScrapeMergesThreadShardsDeterministically) {
  // The merged digest must equal what a single thread recording every
  // sample would produce — bucket by bucket, plus count/sum/max — for
  // any thread count. Samples are fixed, so this is exact equality.
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    MetricsRegistry reg;
    Counter* c = reg.FindOrCreateCounter("c");
    Timer* t = reg.FindOrCreateTimer("t");
    LatencyHistogram reference;
    for (std::size_t tid = 0; tid < threads; ++tid) {
      for (std::uint64_t i = 0; i < 100; ++i) {
        reference.Record(tid * 1000 + i * 7);
      }
    }
    std::vector<std::thread> workers;
    for (std::size_t tid = 0; tid < threads; ++tid) {
      workers.emplace_back([c, t, tid] {
        for (std::uint64_t i = 0; i < 100; ++i) {
          c->Add(2);
          t->Record(tid * 1000 + i * 7);
        }
      });
    }
    for (std::thread& w : workers) w.join();

    const MetricsSnapshot snap = reg.Scrape();
    EXPECT_EQ(snap.FindCounter("c")->value, threads * 200u);
    const LatencyHistogram& merged = snap.FindTimer("t")->hist;
    EXPECT_EQ(merged.count(), reference.count()) << threads << " threads";
    EXPECT_EQ(merged.sum(), reference.sum());
    EXPECT_EQ(merged.max(), reference.max());
    for (std::size_t b = 0; b < LatencyHistogram::num_buckets(); ++b) {
      ASSERT_EQ(merged.bucket_count(b), reference.bucket_count(b))
          << "bucket " << b << ", " << threads << " threads";
    }
  }
}

TEST(MetricsRegistryTest, ShardsAreReusedAcrossSequentialThreads) {
  // Sequential thread lifetimes release and re-claim one shard: the
  // shard count is bounded by peak concurrency, not by thread churn, and
  // released shards keep their values (cumulative totals survive).
  MetricsRegistry reg;
  Counter* c = reg.FindOrCreateCounter("seq");
  for (int i = 0; i < 8; ++i) {
    std::thread([c] { c->Add(3); }).join();
  }
  EXPECT_EQ(reg.num_shards(), 1u);
  EXPECT_EQ(reg.Scrape().FindCounter("seq")->value, 24u);
}

// ------------------------------------------------------------- spans

TEST(SpanRingTest, WrapsAroundKeepingNewestOldestFirst) {
  SpanRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Push({kSpanRouterGain, 0, 0, i * 10, i, i});
  }
  EXPECT_EQ(ring.total_pushed(), 6u);
  EXPECT_EQ(ring.capacity(), 4u);
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].detail, i + 3) << "slot " << i;  // 3, 4, 5, 6
  }
}

TEST(SpanRingTest, ConcurrentPushesAreSafeAndCounted) {
  SpanRing ring(16);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < 100; ++i) {
        ring.Push({kSpanRouterGain, 0, 0, i, 1, static_cast<std::uint64_t>(t)});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(ring.total_pushed(), 400u);
  EXPECT_EQ(ring.Snapshot().size(), 16u);
}

TEST(SpanRingTest, DrainEmptiesRingButKeepsLifetimeCount) {
  SpanRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.Push({kSpanRouterCommit, 0, 0, i * 10, i, i});
  }
  const std::vector<SpanRecord> drained = ring.Drain();
  ASSERT_EQ(drained.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(drained[i].detail, i + 3) << "slot " << i;  // oldest first
  }
  // The ring is empty, the cursor restarts, but total_pushed is a
  // lifetime count.
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_TRUE(ring.Drain().empty());
  EXPECT_EQ(ring.total_pushed(), 6u);
  ring.Push({kSpanRouterCommit, 0, 0, 70, 7, 7});
  const std::vector<SpanRecord> after = ring.Snapshot();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].detail, 7u);
  EXPECT_EQ(ring.total_pushed(), 7u);
}

TEST(ObsSpanTest, PushesRecordAndFeedsTimer) {
  MetricsRegistry reg;
  Timer* t = reg.FindOrCreateTimer("span.t");
  SpanRing ring(8);
  {
    ObsSpan span(&ring, kSpanQueryTopk, 7, t);
    span.set_detail(9);
  }
  const std::vector<SpanRecord> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name_id, kSpanQueryTopk);
  EXPECT_STREQ(SpanNameString(spans[0].name_id), "query.topk");
  EXPECT_EQ(spans[0].detail, 9u);
  const MetricsSnapshot snap = reg.Scrape();
  EXPECT_EQ(snap.FindTimer("span.t")->hist.count(), 1u);
  // Null sinks are legal: the span is a no-op.
  { ObsSpan null_span(nullptr, kSpanUnknown); }
  EXPECT_EQ(ring.total_pushed(), 1u);
}

TEST(SpanNamesTest, CatalogResolvesAndUnknownDegrades) {
  EXPECT_STREQ(SpanNameString(kSpanNetRpc), "net.rpc");
  EXPECT_STREQ(SpanNameString(kSpanServerFold), "server.fold");
  EXPECT_STREQ(SpanNameString(kSpanUnknown), "span.unknown");
  // A newer peer's id this build doesn't know degrades to a label.
  EXPECT_STREQ(SpanNameString(4242), "span.unknown");
}

// --------------------------------------------------- trace collector

TEST(TraceCollectorTest, AssemblesTraceWithSpansAndAttribution) {
  TraceCollectorOptions opts;
  opts.ring_capacity = 4;
  TraceCollector collector(opts);
  EXPECT_FALSE(collector.active());
  EXPECT_EQ(collector.trace_id(), 0u);

  ASSERT_TRUE(collector.StartTrace(kSpanQueryTopk, 10));
  EXPECT_TRUE(collector.active());
  EXPECT_NE(collector.trace_id(), 0u);
  const std::uint64_t root = collector.root_span_id();
  ASSERT_NE(root, 0u);

  const std::uint64_t rpc_id = collector.NextSpanId();
  SpanRecord rpc{};
  rpc.name_id = kSpanNetRpc;
  rpc.start_ns = MonotonicNowNs();
  rpc.duration_ns = 5000;
  collector.AddSpan(rpc_id, root, rpc);
  SpanRecord srv{};
  srv.name_id = kSpanServerFold;
  srv.flags = kSpanFlagRemote;
  srv.origin = (1u << 8) | 0u;  // slot 0, replica 0
  collector.AddSpan(collector.NextSpanId(), rpc_id, srv);
  collector.NoteFailover();
  collector.NoteFetch();
  collector.EndTrace();
  EXPECT_FALSE(collector.active());

  const std::vector<TraceRecord> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const TraceRecord& t = traces[0];
  EXPECT_EQ(t.root_name_id, kSpanQueryTopk);
  EXPECT_EQ(t.detail, 10u);
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.spans[0].parent_span_id, root);
  EXPECT_EQ(t.spans[1].parent_span_id, rpc_id);
  EXPECT_EQ(t.remote_spans, 1u);
  EXPECT_EQ(t.failovers, 1u);
  EXPECT_EQ(t.fetches, 1u);

  auto found = collector.FindTrace(t.trace_id);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->root_span_id, t.root_span_id);
  EXPECT_FALSE(collector.FindTrace(t.trace_id ^ 0x5555).has_value());

  // Chrome trace-event export: both sides named, remote span under the
  // shard-slot pid, client spans under pid 0.
  const std::string json = collector.TraceEventJson();
  EXPECT_NE(json.find("\"name\":\"query.topk\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"net.rpc\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server.fold\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"shard slot 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"client\""), std::string::npos);
}

TEST(TraceCollectorTest, SamplingSkipsUnsampledQueries) {
  TraceCollectorOptions opts;
  opts.sample_every = 4;
  TraceCollector collector(opts);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (collector.StartTrace(kSpanQueryGain, i)) {
      ++sampled;
      EXPECT_TRUE(collector.active());
      collector.EndTrace();
    } else {
      EXPECT_FALSE(collector.active());
      // Everything is a no-op until the next sampled StartTrace.
      collector.AddSpan(1, 0, SpanRecord{});
      collector.EndTrace();
    }
  }
  EXPECT_EQ(sampled, 4);
  EXPECT_EQ(collector.Traces().size(), 4u);
}

TEST(TraceCollectorTest, SlowRingKeepsSlowestAndRecentRingRotates) {
  TraceCollectorOptions opts;
  opts.ring_capacity = 2;
  opts.slow_capacity = 2;
  opts.slow_query_ns = 0;  // always-on slow log: every trace competes
  TraceCollector collector(opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(collector.StartTrace(kSpanQueryGain, i));
    // Vary the duration via a busy-wait so slow ordering is observable.
    const std::uint64_t start = MonotonicNowNs();
    while (MonotonicNowNs() - start < static_cast<std::uint64_t>(
                                          (i % 3) * 200'000)) {
    }
    collector.EndTrace();
  }
  // Recent ring holds only the newest two (details 3, 4).
  const std::vector<TraceRecord> recent = collector.Traces();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].detail, 3u);
  EXPECT_EQ(recent[1].detail, 4u);
  // Slow ring holds the two slowest, slowest first.
  const std::vector<TraceRecord> slow = collector.SlowTraces();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_GE(slow[0].duration_ns, slow[1].duration_ns);

  // A trace evicted from the recent ring but retained in the slow ring
  // is still findable (the slow-query log outlives rotation).
  EXPECT_TRUE(collector.FindTrace(slow[0].trace_id).has_value());
}

TEST(TraceCollectorTest, SpanCapDropsButCounts) {
  TraceCollectorOptions opts;
  opts.max_spans_per_trace = 2;
  TraceCollector collector(opts);
  ASSERT_TRUE(collector.StartTrace(kSpanQueryGain, 0));
  const std::uint64_t root = collector.root_span_id();
  for (int i = 0; i < 5; ++i) {
    collector.AddSpan(collector.NextSpanId(), root, SpanRecord{});
  }
  collector.EndTrace();
  const std::vector<TraceRecord> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].spans.size(), 2u);
}

// ------------------------------------------------------- expositions

TEST(PromTextTest, RendersCountersGaugesAndSparseHistograms) {
  MetricsRegistry reg;
  reg.FindOrCreateCounter("prom.c")->Add(3);
  reg.FindOrCreateGauge("prom.g")->Set(-2);
  Timer* t = reg.FindOrCreateTimer("prom.t");
  t->Record(5);
  t->Record(5);
  t->Record(1000);
  const std::string text = PrometheusText(reg.Scrape());

  // The golden output is derived from the public bucket API, so the test
  // stays correct if the histogram's resolution constants change.
  const auto bound_of = [](std::uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  LatencyHistogram::BucketUpperBound(
                      LatencyHistogram::BucketIndexOf(v)));
    return std::string(buf);
  };
  const std::string expected =
      "# TYPE influmax_prom_c_total counter\n"
      "influmax_prom_c_total 3\n"
      "# TYPE influmax_prom_g gauge\n"
      "influmax_prom_g -2\n"
      "# TYPE influmax_prom_t histogram\n"
      "influmax_prom_t_bucket{le=\"" + bound_of(5) + "\"} 2\n"
      "influmax_prom_t_bucket{le=\"" + bound_of(1000) + "\"} 3\n"
      "influmax_prom_t_bucket{le=\"+Inf\"} 3\n"
      "influmax_prom_t_sum 1010\n"
      "influmax_prom_t_count 3\n";
  EXPECT_EQ(text, expected);
}

TEST(PromTextTest, MetricsJsonRecordShapes) {
  MetricsRegistry reg;
  reg.FindOrCreateCounter("j.c")->Add(11);
  reg.FindOrCreateGauge("j.g")->Set(5);
  Timer* t = reg.FindOrCreateTimer("j.t");
  t->Record(100);
  t->Record(200);
  std::vector<BenchJsonRecord> records;
  AppendMetricsJsonRecords(reg.Scrape(), &records);
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].name, "j.c");
  EXPECT_TRUE(records[0].has_value);
  EXPECT_EQ(records[0].value, 11.0);
  EXPECT_FALSE(records[0].has_count);

  EXPECT_EQ(records[1].name, "j.g");
  EXPECT_TRUE(records[1].has_value);
  EXPECT_EQ(records[1].value, 5.0);

  EXPECT_EQ(records[2].name, "j.t");
  EXPECT_FALSE(records[2].has_value);
  EXPECT_TRUE(records[2].has_percentiles);
  EXPECT_TRUE(records[2].has_count);
  EXPECT_EQ(records[2].count, 2u);
  EXPECT_EQ(records[2].max_ns, 200.0);
  EXPECT_DOUBLE_EQ(records[2].ns_per_op, 150.0);
}

// ------------------------------------------- engine instrumentation

std::uint64_t GlobalCounterValue(const char* name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* c = snap.FindCounter(name);
  return c != nullptr ? c->value : 0;
}

TEST(EngineObsTest, SampledGainProbeCountsQueriesExactly) {
  const PaperExample ex = MakePaperExample();
  EqualDirectCredit credit;
  const auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("obs_engine.snap");
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  SnapshotQueryEngine engine(*view);

  const std::uint64_t queries_before =
      GlobalCounterValue("serve.gain.queries");
  // The probe's tick is thread-local, so a fresh thread starts at zero:
  // exactly 512 / kObsSampleEvery probes fire and the counter (flushed
  // in units of kObsSampleEvery) advances by exactly 512.
  static_assert(512 % kObsSampleEvery == 0);
  std::thread([&engine] {
    for (int i = 0; i < 512; ++i) {
      volatile double g = engine.MarginalGain(PaperExample::kV);
      (void)g;
    }
  }).join();
  EXPECT_EQ(GlobalCounterValue("serve.gain.queries") - queries_before, 512u);
  std::remove(path.c_str());
}

TEST(EngineObsTest, CoarseOpsCountExactlyAndSwitchOffCleanly) {
  const PaperExample ex = MakePaperExample();
  EqualDirectCredit credit;
  const auto model = BuildModel(ex.graph, ex.log, credit);
  const std::string path = TempPath("obs_engine_coarse.snap");
  ASSERT_TRUE(model.WriteSnapshot(path).ok());
  auto view = CreditSnapshotView::Open(path);
  ASSERT_TRUE(view.ok());
  SnapshotQueryEngine engine(*view);
  testing_fixtures::OneShard router(*view);

  // A top-k is counted once by the query front, on either transport.
  const std::uint64_t topk_before =
      GlobalCounterValue("shard.router.topk_queries");
  const std::uint64_t reset_before = GlobalCounterValue("serve.reset.count");
  router->TopKSeeds(2);
  EXPECT_EQ(GlobalCounterValue("shard.router.topk_queries") - topk_before,
            1u);
  engine.ResetSession();
  EXPECT_GE(GlobalCounterValue("serve.reset.count") - reset_before, 1u);
  // On the fresh session the explicit commit is a real one (no early
  // return), so the counter moves by exactly one.
  const std::uint64_t commit_before = GlobalCounterValue("serve.commit.count");
  engine.CommitSeed(PaperExample::kV);
  EXPECT_EQ(GlobalCounterValue("serve.commit.count") - commit_before, 1u);
  engine.ResetSession();

  // set_obs_enabled(false) detaches every engine metric.
  engine.set_obs_enabled(false);
  EXPECT_FALSE(engine.obs_enabled());
  const std::uint64_t frozen_reset = GlobalCounterValue("serve.reset.count");
  const std::uint64_t frozen_commit =
      GlobalCounterValue("serve.commit.count");
  engine.CommitSeed(PaperExample::kV);
  engine.ResetSession();
  EXPECT_EQ(GlobalCounterValue("serve.reset.count"), frozen_reset);
  EXPECT_EQ(GlobalCounterValue("serve.commit.count"), frozen_commit);
  std::remove(path.c_str());
}

// ------------------------------- the live model stays out of serving

/// Every serve.*, shard.router.* and pool.* value in the registry:
/// counters and gauges by value, timers by record count.
std::map<std::string, std::int64_t> ServingMetricValues() {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto serving = [](const std::string& name) {
    return name.starts_with("serve.") || name.starts_with("shard.router.") ||
           name.starts_with("pool.");
  };
  std::map<std::string, std::int64_t> values;
  for (const auto& c : snap.counters) {
    if (serving(c.name)) values[c.name] = static_cast<std::int64_t>(c.value);
  }
  for (const auto& g : snap.gauges) {
    if (serving(g.name)) values[g.name] = g.value;
  }
  for (const auto& t : snap.timers) {
    if (serving(t.name)) {
      values[t.name] = static_cast<std::int64_t>(t.hist.count());
    }
  }
  return values;
}

TEST(ModelObsTest, LiveModelStaysOutOfServingMetrics) {
  // The live model selects through the same query front and router that
  // serve snapshots; none of its gains, commits, resets or selections
  // may show up as served queries. Each gain pass asks more candidates
  // than the sampled probes' 1-in-kObsSampleEvery tick lets by.
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
  ASSERT_TRUE(data.ok());
  std::vector<NodeId> candidates;
  for (NodeId x = 0; x < data->log.num_users(); ++x) {
    if (data->log.ActionsPerformedBy(x) != 0) candidates.push_back(x);
  }
  ASSERT_FALSE(candidates.empty());
  EqualDirectCredit credit;
  const std::map<std::string, std::int64_t> before = ServingMetricValues();
  CdConfig config;
  auto model =
      CreditDistributionModel::Build(data->graph, data->log, credit, config);
  ASSERT_TRUE(model.ok());
  double sum = 0.0;
  const auto gain_pass = [&] {
    for (std::uint64_t i = 0; i < 4 * kObsSampleEvery; ++i) {
      sum += model->MarginalGain(candidates[i % candidates.size()]);
    }
  };
  gain_pass();
  auto selection = model->SelectSeeds(10);
  ASSERT_TRUE(selection.ok());
  ASSERT_FALSE(selection->seeds.empty());
  gain_pass();
  NodeId extra = 0;
  while (model->MarginalGain(extra) <= 0.0) ++extra;
  model->CommitSeed(extra);
  EXPECT_EQ(model->committed_seeds().size(), selection->seeds.size() + 1);
  EXPECT_GT(sum, 0.0);

  const std::map<std::string, std::int64_t> after = ServingMetricValues();
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    EXPECT_EQ(value, it == before.end() ? 0 : it->second) << name;
  }
}

// ------------------------------------- recording across generation swaps

TEST(ObsSwapTest, ConcurrentSessionsRecordAcrossGenerationSwap) {
  // The tsan target: sessions answering (instrumented) gains and
  // refreshing while the manager swaps generations and reclaims, with
  // scrapes taken throughout — registry recording must be race-free
  // against shard claim/release, generation swaps, and Scrape.
  auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
  ASSERT_TRUE(data.ok());
  EqualDirectCredit credit;
  const auto model = BuildModel(data->graph, data->log, credit, 0.001);

  const std::string dir = MakeTempDir("obs_swap");
  ShardedSnapshotWriter writer(dir, 2);
  ASSERT_TRUE(writer.WriteFromModel(model, 1).ok());
  ASSERT_TRUE(writer.WriteFromModel(model, 2).ok());
  ASSERT_TRUE(WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
  auto manager = GenerationManager::Open(dir);
  ASSERT_TRUE(manager.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      GenerationManager::Session session(**manager);
      SpanRing ring(32);
      session.router().set_span_ring(&ring);
      while (!stop.load()) {
        double sum = 0.0;
        for (NodeId x = 0; x < 64; ++x) {
          sum += session.router().MarginalGain(x);
        }
        if (sum < 0.0) failures.fetch_add(1);
        if (session.Refresh()) session.router().set_span_ring(&ring);
        const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
        if (snap.FindCounter("shard.router.gain_queries") == nullptr) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int flip = 0; flip < 6; ++flip) {
    // CURRENT starts at 1, so the first flip goes to 2: every write
    // changes the pointer and every RefreshFromDisk publishes a swap.
    ASSERT_TRUE(
        WriteCurrentManifestName(dir, ManifestFileName(2 - (flip % 2))).ok());
    ASSERT_TRUE((*manager)->RefreshFromDisk().ok());
    (*manager)->ReclaimRetired();
    const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    EXPECT_NE(snap.FindGauge("shard.generation.pinned_sessions"), nullptr);
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Swap instrumentation: the swap counter saw the six flips (every
  // flip changes CURRENT, so every RefreshFromDisk publishes).
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  ASSERT_NE(snap.FindCounter("shard.generation.swaps"), nullptr);
  EXPECT_GE(snap.FindCounter("shard.generation.swaps")->value, 6u);
  (*manager)->ReclaimRetired();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace influmax
