#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/retry.h"
#include "common/memory.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/text_io.h"
#include "common/timer.h"

namespace influmax {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IoError("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveExtractsValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

namespace {
Status FailsThrough(bool fail) {
  INFLUMAX_RETURN_IF_ERROR(fail ? Status::IoError("inner")
                                : Status::OK());
  return Status::NotFound("reached end");
}
}  // namespace

TEST(StatusTest, ReturnIfErrorPropagatesOnlyFailures) {
  EXPECT_EQ(FailsThrough(true).code(), StatusCode::kIoError);
  EXPECT_EQ(FailsThrough(false).code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[rng.NextBounded(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(13);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(3.0);
  EXPECT_NEAR(sum / kDraws, 3.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, ZipfIsBoundedAndSkewed) {
  Rng rng(19);
  int ones = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t x = rng.NextZipf(2.5, 8);
    EXPECT_GE(x, 1u);
    EXPECT_LE(x, 8u);
    if (x == 1) ++ones;
  }
  EXPECT_GT(ones, 5000);  // alpha=2.5 puts most mass on 1
}

// ----------------------------------------------------------------- Flags

TEST(FlagsTest, ParsesAllKinds) {
  FlagParser flags;
  int k = 50;
  std::int64_t tuples = 0;
  double lambda = 0.001;
  std::string name = "flixster";
  bool verbose = false;
  flags.AddInt("k", &k, "seeds");
  flags.AddInt("tuples", &tuples, "budget");
  flags.AddDouble("lambda", &lambda, "threshold");
  flags.AddString("dataset", &name, "dataset");
  flags.AddBool("verbose", &verbose, "verbosity");

  const char* argv[] = {"prog",           "--k=10",        "--tuples",
                        "5000000",        "--lambda=0.01", "--dataset=flickr",
                        "--verbose"};
  ASSERT_TRUE(flags.Parse(7, const_cast<char**>(argv)).ok());
  EXPECT_EQ(k, 10);
  EXPECT_EQ(tuples, 5000000);
  EXPECT_DOUBLE_EQ(lambda, 0.01);
  EXPECT_EQ(name, "flickr");
  EXPECT_TRUE(verbose);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  FlagParser flags;
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, RejectsMalformedValue) {
  FlagParser flags;
  int k = 0;
  flags.AddInt("k", &k, "seeds");
  const char* argv[] = {"prog", "--k=abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, HelpRequested) {
  FlagParser flags;
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage("prog").find("Usage"), std::string::npos);
}

// --------------------------------------------------------------- Text IO

TEST(TextIoTest, SplitFieldsKeepsEmpties) {
  const auto fields = SplitFields("a\t\tb\t", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(TextIoTest, ParseU32Valid) {
  auto r = ParseU32("4294967295");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 4294967295u);
}

TEST(TextIoTest, ParseU32RejectsGarbageAndOverflow) {
  EXPECT_FALSE(ParseU32("").ok());
  EXPECT_FALSE(ParseU32("12x").ok());
  EXPECT_FALSE(ParseU32("-1").ok());
  EXPECT_FALSE(ParseU32("4294967296").ok());
}

TEST(TextIoTest, ParseDoubleValid) {
  auto r = ParseDouble("2.5e-3");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 0.0025);
}

TEST(TextIoTest, LineReaderSkipsCommentsAndBlankLines) {
  const std::string path = ::testing::TempDir() + "/lines.txt";
  ASSERT_TRUE(WriteTextFile(path, "# comment\n\nfirst\r\nsecond\n").ok());
  LineReader reader(path);
  ASSERT_TRUE(reader.status().ok());
  std::string line;
  ASSERT_TRUE(reader.Next(&line));
  EXPECT_EQ(line, "first");
  ASSERT_TRUE(reader.Next(&line));
  EXPECT_EQ(line, "second");
  EXPECT_FALSE(reader.Next(&line));
  std::remove(path.c_str());
}

TEST(TextIoTest, LineReaderReportsMissingFile) {
  LineReader reader("/nonexistent/definitely/missing.txt");
  EXPECT_FALSE(reader.status().ok());
}

// -------------------------------------------------------------- Parallel

TEST(ParallelTest, ChunkedCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelForChunked(1000, 4, [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, DynamicCoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(777);
  ParallelForDynamic(777, 8, [&](std::size_t, std::size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelTest, SingleThreadRunsInline) {
  std::vector<int> order;
  ParallelForDynamic(5, 1, [&](std::size_t t, std::size_t i) {
    EXPECT_EQ(t, 0u);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelTest, ZeroTotalIsNoop) {
  bool called = false;
  ParallelForChunked(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelTest, SingleItemRunsInlineEvenWithManyThreads) {
  // total <= 1 resolves to one worker: no spawn, body on the caller.
  const auto caller = std::this_thread::get_id();
  ParallelForDynamic(1, 8, [&](std::size_t t, std::size_t i) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  ParallelForChunked(1, 8, [&](std::size_t t, std::size_t b, std::size_t e) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 1u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ParallelTest, CallerParticipatesAsWorkerZero) {
  // With N workers only N - 1 threads spawn; worker 0 is the caller.
  const auto caller = std::this_thread::get_id();
  std::atomic<int> caller_was_worker_zero{0};
  ParallelForChunked(100, 4, [&](std::size_t t, std::size_t, std::size_t) {
    if (t == 0 && std::this_thread::get_id() == caller) {
      caller_was_worker_zero.fetch_add(1);
    }
  });
  EXPECT_EQ(caller_was_worker_zero.load(), 1);

  caller_was_worker_zero = 0;
  std::atomic<int> zero_indices{0};
  ParallelForDynamic(100, 4, [&](std::size_t t, std::size_t) {
    if (t == 0) {
      zero_indices.fetch_add(1);
      if (std::this_thread::get_id() == caller) {
        caller_was_worker_zero.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(caller_was_worker_zero.load(), zero_indices.load());
}

// ------------------------------------------------------------ WorkerPool

TEST(WorkerPoolTest, CoversEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_workers(), 4u);
  constexpr std::size_t kTotal = 5000;
  std::vector<std::atomic<int>> hits(kTotal);
  for (auto& hit : hits) hit.store(0);
  pool.ParallelFor(kTotal, [&](std::size_t t, std::size_t i) {
    ASSERT_LT(t, 4u);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(WorkerPoolTest, ReusableAcrossManyJobsWithoutRespawning) {
  // The pool's point (vs ParallelForDynamic) is that back-to-back jobs
  // reuse the same parked threads; hammer it and check every job's sum.
  WorkerPool pool(3);
  for (int job = 1; job <= 200; ++job) {
    std::atomic<long long> sum{0};
    pool.ParallelFor(static_cast<std::size_t>(job),
                     [&](std::size_t, std::size_t i) {
                       sum.fetch_add(static_cast<long long>(i) + 1);
                     });
    ASSERT_EQ(sum.load(), static_cast<long long>(job) * (job + 1) / 2)
        << "job " << job;
  }
}

TEST(WorkerPoolTest, SingleWorkerRunsInlineInOrder) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.num_workers(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(10, [&](std::size_t t, std::size_t i) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  const std::vector<std::size_t> want = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, want);
}

TEST(WorkerPoolTest, MoreWorkersThanItemsAndEmptyJobs) {
  WorkerPool pool(8);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(3, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 3);
}

TEST(WorkerPoolTest, CallerParticipatesAsWorkerZero) {
  WorkerPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> caller_was_worker_zero{0};
  std::atomic<int> zero_indices{0};
  pool.ParallelFor(200, [&](std::size_t t, std::size_t) {
    if (t == 0) {
      zero_indices.fetch_add(1);
      if (std::this_thread::get_id() == caller) {
        caller_was_worker_zero.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(caller_was_worker_zero.load(), zero_indices.load());
}

TEST(WorkerPoolTest, TryParallelForRefusesWhileHeldAndNestedCallsRunInline) {
  WorkerPool pool(2);
  // Hold the pool: both indices of this job wait for the release.
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    EXPECT_TRUE(pool.TryParallelFor(2, [&](std::size_t, std::size_t) {
      holding.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    }));
  });
  while (holding.load() < 2) std::this_thread::yield();
  std::atomic<int> calls{0};
  EXPECT_FALSE(pool.TryParallelFor(
      4, [&](std::size_t, std::size_t) { calls.fetch_add(1); }));
  EXPECT_EQ(calls.load(), 0);
  // ParallelFor does not wait for the holder: it runs inline, in order.
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.ParallelFor(4, [&](std::size_t t, std::size_t i) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  release.store(true);
  holder.join();

  // From inside a job, on the caller and on the worker alike, the pool
  // is held by that job: a nested call is refused, or runs inline.
  constexpr std::size_t kOuter = 16;
  std::atomic<int> refused{0};
  std::atomic<int> inline_indices{0};
  EXPECT_TRUE(pool.TryParallelFor(kOuter, [&](std::size_t, std::size_t) {
    if (!pool.TryParallelFor(3, [](std::size_t, std::size_t) {})) {
      refused.fetch_add(1);
    }
    const auto me = std::this_thread::get_id();
    pool.ParallelFor(3, [&](std::size_t t, std::size_t) {
      if (t == 0 && std::this_thread::get_id() == me) {
        inline_indices.fetch_add(1);
      }
    });
  }));
  EXPECT_EQ(refused.load(), static_cast<int>(kOuter));
  EXPECT_EQ(inline_indices.load(), static_cast<int>(3 * kOuter));
  // Released again: the next job runs on the pool.
  EXPECT_TRUE(pool.TryParallelFor(
      4, [&](std::size_t, std::size_t) { calls.fetch_add(1); }));
  EXPECT_EQ(calls.load(), 4);
}

// ------------------------------------------------------------- Histogram

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram hist;
  // Values below 32 land in exact unit buckets, so percentiles of a
  // small-value distribution are exact order statistics.
  for (int i = 1; i <= 20; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 20u);
  EXPECT_EQ(hist.Percentile(50.0), 10.0);
  EXPECT_EQ(hist.Percentile(95.0), 19.0);
  EXPECT_EQ(hist.Percentile(100.0), 20.0);
  EXPECT_EQ(hist.Percentile(0.0), 1.0);
}

TEST(LatencyHistogramTest, LargeValuesWithinResolution) {
  LatencyHistogram hist;
  // A latency-shaped spread: the bucket midpoint must be within ~3.2%
  // (one sub-bucket width, half above / half below) of the true value.
  const double values[] = {100.0,    1234.0,      56789.0,
                           1.5e6,    2.34e8,      9.87e9};
  for (const double v : values) {
    hist.Reset();
    hist.Record(v);
    EXPECT_NEAR(hist.Percentile(50.0), v, v * 0.032) << v;
  }
}

TEST(LatencyHistogramTest, PercentilesAreMonotoneAndTailSensitive) {
  LatencyHistogram hist;
  // 99 fast queries and one 100x outlier: p50 stays fast, p99+ sees it.
  for (int i = 0; i < 99; ++i) hist.Record(1000.0);
  hist.Record(100000.0);
  const double p50 = hist.Percentile(50.0);
  const double p95 = hist.Percentile(95.0);
  const double p100 = hist.Percentile(100.0);
  EXPECT_NEAR(p50, 1000.0, 1000.0 * 0.032);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p100);
  EXPECT_NEAR(p100, 100000.0, 100000.0 * 0.032);
}

TEST(LatencyHistogramTest, MergeMatchesInterleavedRecording) {
  LatencyHistogram merged;
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 7919) % 100000);
    merged.Record(v);
    (i % 2 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), merged.count());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(a.Percentile(p), merged.Percentile(p)) << p;
  }
}

TEST(LatencyHistogramTest, EmptyAndNegativeInputs) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Percentile(50.0), 0.0);
  hist.Record(-5.0);  // clamps to 0
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_EQ(hist.Percentile(50.0), 0.0);
}

// ---------------------------------------------------------------- Memory

TEST(MemoryTest, RssIsPositiveOnLinux) {
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemoryTest, FormatBytesUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1500), "1.50 KB");
  EXPECT_EQ(FormatBytes(2500000), "2.50 MB");
  EXPECT_EQ(FormatBytes(3200000000ULL), "3.20 GB");
}

TEST(MmapFileTest, MapsFileContentsReadOnly) {
  const std::string path = ::testing::TempDir() + "/mmap_roundtrip.bin";
  const std::string payload = "influmax mmap payload";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << payload;
  }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_EQ(file->size(), payload.size());
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(file->data()),
                        file->size()),
            payload);
  std::remove(path.c_str());
}

TEST(MmapFileTest, EmptyFileIsValidAndMissingFileFails) {
  const std::string path = ::testing::TempDir() + "/mmap_empty.bin";
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  auto empty = MmapFile::Open(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_EQ(empty->data(), nullptr);
  std::remove(path.c_str());

  EXPECT_FALSE(MmapFile::Open("/no/such/mmap/file").ok());
}

TEST(MmapFileTest, MoveTransfersOwnership) {
  const std::string path = ::testing::TempDir() + "/mmap_move.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "xyz";
  }
  auto file = MmapFile::Open(path);
  ASSERT_TRUE(file.ok());
  MmapFile moved = std::move(file).value();
  EXPECT_EQ(moved.size(), 3u);
  MmapFile assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.size(), 3u);
  EXPECT_EQ(moved.size(), 0u);  // NOLINT(bugprone-use-after-move)
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Timer

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

TEST(DeadlineTest, InfiniteNeverExpiresAndSaturates) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_us(), Deadline::kNoDeadlineUs);
  EXPECT_EQ(d.remaining_ms(), Deadline::kNoDeadlineUs);
}

TEST(DeadlineTest, FiniteDeadlineCountsDownAndExpires) {
  const Deadline d = Deadline::AfterMs(60000);
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_us(), 0u);
  EXPECT_LE(d.remaining_us(), 60000u * 1000u);
  EXPECT_LE(d.remaining_ms(), 60000u);

  const Deadline past = Deadline::AfterUs(0);
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining_us(), 0u);
  EXPECT_EQ(past.remaining_ms(), 0u);
}

TEST(DeadlineTest, WireEncodingRoundTrips) {
  // Frame headers carry remaining_us(); the sentinel must decode back
  // to Infinite — that is what lets "no deadline" cross the wire.
  EXPECT_TRUE(Deadline::AfterUs(Deadline::kNoDeadlineUs).infinite());
  const Deadline rebuilt =
      Deadline::AfterUs(Deadline::AfterMs(5000).remaining_us());
  EXPECT_FALSE(rebuilt.infinite());
  EXPECT_FALSE(rebuilt.expired());
  EXPECT_LE(rebuilt.remaining_ms(), 5000u);
}

// ----------------------------------------------------------------- Retry

TEST(RetryTest, RetriesTransientIoErrorUntilSuccess) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  int calls = 0;
  std::vector<std::uint64_t> sleeps;
  const Status status = RunWithRetry(
      policy,
      [&]() -> Status {
        return ++calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      nullptr, [&](std::uint64_t ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);  // one sleep between each attempt pair
}

TEST(RetryTest, DoesNotRetryDeterministicFailures) {
  int calls = 0;
  const Status status = RunWithRetry(
      RetryPolicy{}, [&]() -> Status {
        ++calls;
        return Status::Corruption("bad bytes");
      },
      nullptr, [](std::uint64_t) {});
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1) << "corruption must not be retried";
  EXPECT_FALSE(IsTransientIoError(Status::NotFound("x")));
  EXPECT_TRUE(IsTransientIoError(Status::IoError("x")));
}

TEST(RetryTest, StopsAtMaxAttemptsAndReportsLastStatus) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  int calls = 0;
  const Status status = RunWithRetry(
      policy, [&]() -> Status { return Status::IoError(std::to_string(++calls)); },
      nullptr, [](std::uint64_t) {});
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(status.message(), "3");
}

TEST(RetryTest, BackoffIsBoundedDeterministicAndBudgetCapped) {
  RetryPolicy policy;
  policy.max_attempts = 32;
  policy.initial_backoff_ms = 8;
  policy.max_backoff_ms = 20;
  policy.budget_ms = 60;
  const auto run = [&] {
    std::vector<std::uint64_t> sleeps;
    (void)RunWithRetry(
        policy, [] { return Status::IoError("always"); }, nullptr,
        [&](std::uint64_t ms) { sleeps.push_back(ms); });
    return sleeps;
  };
  const std::vector<std::uint64_t> first = run();
  EXPECT_EQ(first, run()) << "jitter must be deterministic per seed";
  std::uint64_t total = 0;
  for (std::uint64_t ms : first) {
    EXPECT_GE(ms, policy.initial_backoff_ms / 2);  // jitter in [b/2, b]
    EXPECT_LE(ms, policy.max_backoff_ms);
    total += ms;
  }
  EXPECT_LE(total, policy.budget_ms);
  EXPECT_LT(first.size() + 1, 32u) << "budget must cut attempts short";

  RetryPolicy reseeded = policy;
  reseeded.jitter_seed = 1234;
  std::vector<std::uint64_t> other;
  (void)RunWithRetry(
      reseeded, [] { return Status::IoError("always"); }, nullptr,
      [&](std::uint64_t ms) { other.push_back(ms); });
  EXPECT_NE(first, other) << "seed must steer the jitter stream";
}

TEST(RetryTest, TransientClassCoversNetworkUnavailability) {
  // The widened classifier (src/net): kUnavailable joins kIoError in
  // the heal-by-retry class; deterministic failures stay out of it.
  EXPECT_TRUE(IsTransientError(Status::IoError("EIO")));
  EXPECT_TRUE(IsTransientError(Status::Unavailable("connection refused")));
  EXPECT_FALSE(IsTransientError(Status::NotFound("x")));
  EXPECT_FALSE(IsTransientError(Status::InvalidArgument("x")));
  EXPECT_FALSE(IsTransientError(Status::Corruption("x")));
  EXPECT_FALSE(IsTransientError(Status::FailedPrecondition("x")));
  EXPECT_FALSE(IsTransientError(Status::OK()));
  // The historical disk-only name is now the same classifier.
  EXPECT_TRUE(IsTransientIoError(Status::Unavailable("refused")));
}

TEST(RetryTest, StopsBeforeBackoffWouldOvershootDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 32;
  policy.initial_backoff_ms = 50;
  policy.max_backoff_ms = 50;
  policy.budget_ms = 10000;
  int calls = 0;
  std::vector<std::uint64_t> sleeps;
  const Status status = RunWithRetry(
      policy,
      [&]() -> Status { return Status::Unavailable(std::to_string(++calls)); },
      nullptr, [&](std::uint64_t ms) { sleeps.push_back(ms); },
      Deadline::AfterMs(20));
  // The first backoff (>= 25ms after jitter) would overshoot the 20ms
  // deadline, so the loop stops after the first attempt without
  // sleeping at all — and reports that attempt's status.
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty())
      << "must not sleep past the caller's deadline";
}

TEST(RetryTest, CountsEveryAttemptInTheRegistry) {
  MetricsRegistry reg;
  Counter* attempts = reg.FindOrCreateCounter("retry.attempts");
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_ms = 1;
  (void)RunWithRetry(
      policy, [] { return Status::IoError("always"); }, attempts,
      [](std::uint64_t) {});
  EXPECT_EQ(reg.Scrape().FindCounter("retry.attempts")->value, 4u);
}

// ------------------------------------------------------------ Failpoints
// In the default build this binary links the failpoint-free libraries:
// the arming API must stay linkable but refuse loudly, and the
// compiled-out site macro must be a true no-op. The armed behavior
// lives in fault_test, which links the INFLUMAX_FAILPOINTS mirror.
// Under a global INFLUMAX_FAILPOINTS=ON build (failpoints presets)
// the compiled-out surface doesn't exist, so only the parser contract
// is checked here.

TEST(FailpointOffTest, CompiledOutSurfaceRefusesLoudly) {
#ifndef INFLUMAX_FAILPOINTS
  static_assert(!kFailpointsEnabled);
  EXPECT_FALSE(FailpointsCompiledIn());
  const Status armed =
      ArmFailpoint("snapshot.write", {.mode = FailpointMode::kError});
  EXPECT_EQ(armed.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ArmFailpointsFromSpec("manifest.write=torn:16").code(),
            StatusCode::kFailedPrecondition);
  DisarmAllFailpoints();  // linkable no-op
  EXPECT_EQ(FailpointTripCount("snapshot.write"), 0u);
#else
  static_assert(kFailpointsEnabled);
  EXPECT_TRUE(FailpointsCompiledIn());
#endif
  auto spec = ParseFailpointSpec("torncrash:64@1#2");  // parsing still works
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->mode, FailpointMode::kTornCrash);
}

}  // namespace
}  // namespace influmax
