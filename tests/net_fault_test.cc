// Network chaos suite (docs/networking.md): arm the wire-level
// failpoints at every protocol step — a replica dying before handling,
// tearing its response at an exact byte offset, dying between two
// shards' partials, the client's own request stream tearing — and
// assert the two failover invariants: with a live replica remaining,
// every query still returns bit-identical answers (the failed slot alone
// is re-asked for the same partials while the other slots' replies are
// drained), and with no live replica the router degrades to a fast
// Unavailable, never a partial answer. Built against the
// failpoint-enabled mirror (influmax_fp), so this suite runs in the
// default ctest run.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "net/remote_router.h"
#include "net/shard_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "test_fixtures.h"

namespace influmax {
namespace {

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

std::uint64_t CounterValue(const std::string& name) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
  const auto* counter = snap.FindCounter(name);
  return counter == nullptr ? 0 : counter->value;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The shared corpus: the same generation split into 2 and into 3
/// shards, plus the in-process expected answers, built once (the matrix
/// below starts a fresh fleet + router per scenario, but the data never
/// changes). Every shard count answers bit-identically, so one set of
/// expected answers serves both.
struct ChaosFixture {
  std::string dir;   ///< 2 shards
  std::string dir3;  ///< 3 shards
  SnapshotSeedSelection expected;
  std::vector<double> expected_gains;
  /// What-if session: gains of every user after committing the first
  /// kWhatIfCommits expected seeds.
  std::vector<double> whatif_gains;

  static constexpr std::size_t kWhatIfCommits = 5;

  static const ChaosFixture& Get() {
    static const ChaosFixture* fixture = [] {
      auto* f = new ChaosFixture();
      auto data = BuildPresetDataset(FlixsterSmallPreset(0.05));
      INFLUMAX_CHECK(data.ok());
      EqualDirectCredit credit;
      const auto model =
          BuildModel(data->graph, data->log, credit, 0.001);
      f->dir = MakeTempDir("net_chaos_corpus");
      f->dir3 = MakeTempDir("net_chaos_corpus3");
      for (const auto& [dir, shards] :
           {std::pair{f->dir, 2}, std::pair{f->dir3, 3}}) {
        ShardedSnapshotWriter writer(dir, shards);
        INFLUMAX_CHECK(writer.WriteFromModel(model, 1).ok());
        INFLUMAX_CHECK(
            WriteCurrentManifestName(dir, ManifestFileName(1)).ok());
      }
      auto manager = GenerationManager::Open(f->dir);
      INFLUMAX_CHECK(manager.ok());
      GenerationManager::Session session(**manager);
      f->expected = session.router().TopKSeeds(6);
      INFLUMAX_CHECK(f->expected.seeds.size() > kWhatIfCommits);
      session.router().ResetSession();
      for (NodeId x = 0; x < data->log.num_users(); ++x) {
        f->expected_gains.push_back(session.router().MarginalGain(x));
      }
      for (std::size_t i = 0; i < kWhatIfCommits; ++i) {
        session.router().CommitSeed(f->expected.seeds[i]);
      }
      for (NodeId x = 0; x < data->log.num_users(); ++x) {
        f->whatif_gains.push_back(session.router().MarginalGain(x));
      }
      return f;
    }();
    return *fixture;
  }
};

/// Two replicas per range slot: slot i is served by servers[2i] (the
/// initially-active replica, the one the chaos scenarios break) and
/// servers[2i + 1].
struct ReplicatedFleet {
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<RemoteEndpoint>> replica_sets;
};

ReplicatedFleet StartReplicatedFleet(const std::string& dir,
                                     std::size_t shards) {
  ReplicatedFleet fleet;
  for (std::size_t i = 0; i < shards; ++i) {
    std::vector<RemoteEndpoint> replicas;
    for (int replica = 0; replica < 2; ++replica) {
      ShardServerOptions options;
      options.dir = dir;
      options.shard = static_cast<int>(i);
      auto server = ShardServer::Start(options);
      INFLUMAX_CHECK(server.ok()) << server.status().ToString();
      replicas.push_back({"127.0.0.1", (*server)->port()});
      fleet.servers.push_back(std::move(*server));
    }
    fleet.replica_sets.push_back(std::move(replicas));
  }
  return fleet;
}

RemoteRouterOptions FastRetryOptions(
    std::vector<std::vector<RemoteEndpoint>> replica_sets) {
  RemoteRouterOptions options;
  options.replica_sets = std::move(replica_sets);
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_ms = 1;
  options.retry.max_backoff_ms = 5;
  options.retry.budget_ms = 200;
  options.connect_timeout_ms = 1000;
  return options;
}

// --------------------------------------------------------- the matrix

/// The query mixes the matrix drives through a fleet with one armed
/// failpoint. Each returns "" when every answer was bit-exact, else a
/// description of the first failure.
enum class Workload { kTopK, kGainSweep, kWhatIf };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kTopK:
      return "topk";
    case Workload::kGainSweep:
      return "gain sweep";
    case Workload::kWhatIf:
      return "what-if";
  }
  return "?";
}

/// Every 3rd user: enough fan-outs that a skip of 9 lands mid-sweep.
constexpr NodeId kSweepStride = 3;

std::string RunWorkload(Workload workload, RemoteShardRouter& remote,
                        const ChaosFixture& fixture) {
  const auto sweep = [&](const std::vector<double>& want) -> std::string {
    for (NodeId x = 0; x < remote.num_users(); x += kSweepStride) {
      auto gain = remote.MarginalGain(x);
      if (!gain.ok()) return gain.status().ToString();
      if (!SameBits(*gain, want[x])) return "gain of " + std::to_string(x);
    }
    return "";
  };
  switch (workload) {
    case Workload::kTopK: {
      auto routed = remote.TopKSeeds(6);
      if (!routed.ok()) return routed.status().ToString();
      if (routed->seeds != fixture.expected.seeds ||
          routed->marginal_gains != fixture.expected.marginal_gains ||
          routed->cumulative_spread != fixture.expected.cumulative_spread ||
          routed->gain_evaluations != fixture.expected.gain_evaluations) {
        return "topk selection differs";
      }
      return "";
    }
    case Workload::kGainSweep:
      return sweep(fixture.expected_gains);
    case Workload::kWhatIf: {
      // 5 commits, a gain sweep against them, a reset, and one fresh
      // gain: commit fan-outs, replayed commits, and the reset all sit
      // in the injection path.
      for (std::size_t i = 0; i < ChaosFixture::kWhatIfCommits; ++i) {
        if (Status st = remote.CommitSeed(fixture.expected.seeds[i]);
            !st.ok()) {
          return st.ToString();
        }
      }
      if (std::string bad = sweep(fixture.whatif_gains); !bad.empty()) {
        return "what-if " + bad;
      }
      if (Status st = remote.ResetSession(); !st.ok()) return st.ToString();
      const NodeId x = fixture.expected.seeds[0];
      auto gain = remote.MarginalGain(x);
      if (!gain.ok()) return gain.status().ToString();
      if (!SameBits(*gain, fixture.expected_gains[x])) {
        return "gain after reset";
      }
      return "";
    }
  }
  return "unknown workload";
}

TEST(NetChaosTest, EveryProtocolStepFailsOverToBitIdenticalAnswers) {
  const ChaosFixture& fixture = ChaosFixture::Get();

  // site x spec x skip: which request (or response, or fold step) dies,
  // and how. Every spec fires at most once (#limit=1 via limit field),
  // at the skip-th evaluation of its site — sweeping skip walks the
  // injection across the protocol: hello, commit replay, batch folds,
  // the CELF consumption loop's re-evaluations, what-if commits. With 3
  // slots the fault can land on the middle slot while the others'
  // replies are still in flight.
  struct Scenario {
    const char* site;
    const char* spec;  ///< without the @skip suffix
  };
  const Scenario scenarios[] = {
      {"net.server.request", "error"},    // died before handling
      {"net.server.send", "torn:8"},      // response header torn
      {"net.server.send", "torn:40"},     // response payload torn
      {"net.server.send", "error"},       // response never sent
      {"net.server.fold_step", "error"},  // died mid-fold
      {"net.frame.send", "torn:10"},      // client request stream torn
      {"net.frame.send", "error"},        // client send failed outright
  };
  const std::uint64_t skips[] = {0, 1, 3, 9};
  const Workload workloads[] = {Workload::kTopK, Workload::kGainSweep,
                                Workload::kWhatIf};

  const std::uint64_t failovers_before = CounterValue("net.failovers");
  for (const std::size_t shards : {std::size_t{2}, std::size_t{3}}) {
    const std::string& dir = shards == 2 ? fixture.dir : fixture.dir3;
    for (const Workload workload : workloads) {
      for (const Scenario& scenario : scenarios) {
        for (const std::uint64_t skip : skips) {
          SCOPED_TRACE(std::to_string(shards) + " slots, " +
                       WorkloadName(workload) + ": " + scenario.site + "=" +
                       scenario.spec + "@" + std::to_string(skip));
          ReplicatedFleet fleet = StartReplicatedFleet(dir, shards);
          auto remote = RemoteShardRouter::Connect(
              FastRetryOptions(fleet.replica_sets));
          ASSERT_TRUE(remote.ok()) << remote.status().ToString();

          auto spec =
              ParseFailpointSpec(std::string(scenario.spec) + "@" +
                                 std::to_string(skip) + "#1");
          ASSERT_TRUE(spec.ok());
          ASSERT_TRUE(ArmFailpoint(scenario.site, *spec).ok());
          const std::string bad = RunWorkload(workload, **remote, fixture);
          DisarmAllFailpoints();
          EXPECT_EQ(bad, "");
        }
      }
    }
  }
  // The matrix as a whole must have exercised the failover path (some
  // large skips never fire, but the small ones always do).
  EXPECT_GT(CounterValue("net.failovers"), failovers_before);
}

// ------------------------------------------------- process-death path

TEST(NetChaosTest, KilledReplicaFailsOverWithCommitReplay) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  ReplicatedFleet fleet = StartReplicatedFleet(fixture.dir, 2);
  auto remote =
      RemoteShardRouter::Connect(FastRetryOptions(fleet.replica_sets));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // Build session state the failover must reconstruct: two committed
  // seeds on every slot.
  const NodeId s0 = fixture.expected.seeds[0];
  const NodeId s1 = fixture.expected.seeds[1];
  ASSERT_TRUE((*remote)->CommitSeed(s0).ok());
  ASSERT_TRUE((*remote)->CommitSeed(s1).ok());

  // In-process reference with the same session.
  auto manager = GenerationManager::Open(fixture.dir);
  ASSERT_TRUE(manager.ok());
  GenerationManager::Session session(**manager);
  session.router().CommitSeed(s0);
  session.router().CommitSeed(s1);

  const std::uint64_t failovers = CounterValue("net.failovers");
  const std::uint64_t replays = CounterValue("net.commit_replays");
  // Kill the active replica of each slot; the next query re-dials the
  // surviving replica, replays both commits, and re-asks that slot for
  // its partials — same bits as if nothing happened.
  fleet.servers[0]->Kill();
  fleet.servers[2]->Kill();
  for (NodeId x = 0; x < (*remote)->num_users(); x += 5) {
    auto gain = (*remote)->MarginalGain(x);
    ASSERT_TRUE(gain.ok()) << gain.status().ToString();
    ASSERT_TRUE(SameBits(*gain, session.router().MarginalGain(x)))
        << "node " << x << " after replica death";
  }
  EXPECT_GT(CounterValue("net.failovers"), failovers);
  EXPECT_GE(CounterValue("net.commit_replays"), replays + 4);
}

TEST(NetChaosTest, NoLiveReplicaDegradesFastNeverPartial) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  ReplicatedFleet fleet = StartReplicatedFleet(fixture.dir, 2);
  auto remote =
      RemoteShardRouter::Connect(FastRetryOptions(fleet.replica_sets));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // Kill BOTH replicas of slot 1 only: slot 0 still answers, but the
  // sum misses slot 1's partial — the query must fail whole, not return
  // slot 0's partial alone.
  fleet.servers[2]->Kill();
  fleet.servers[3]->Kill();
  auto gain = (*remote)->MarginalGain(0);
  ASSERT_FALSE(gain.ok());
  EXPECT_EQ(gain.status().code(), StatusCode::kUnavailable)
      << gain.status().ToString();
  auto topk = (*remote)->TopKSeeds(4);
  ASSERT_FALSE(topk.ok());
  EXPECT_EQ(topk.status().code(), StatusCode::kUnavailable);
}

TEST(NetChaosTest, FailedCommitPoisonsSessionUntilReset) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  // Single replica per slot: a dead server makes the commit fail for
  // real (replicas could now disagree on the seed set).
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<std::vector<RemoteEndpoint>> sets;
  for (int i = 0; i < 2; ++i) {
    ShardServerOptions options;
    options.dir = fixture.dir;
    options.shard = i;
    auto server = ShardServer::Start(options);
    ASSERT_TRUE(server.ok());
    sets.push_back({{"127.0.0.1", (*server)->port()}});
    servers.push_back(std::move(*server));
  }
  auto remote = RemoteShardRouter::Connect(FastRetryOptions(sets));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  servers[1]->Kill();
  const Status commit = (*remote)->CommitSeed(fixture.expected.seeds[0]);
  ASSERT_FALSE(commit.ok());
  EXPECT_EQ(commit.code(), StatusCode::kUnavailable);

  // Every query is now refused deterministically — the replicas may
  // disagree about the seed set, so no answer is trustworthy.
  auto gain = (*remote)->MarginalGain(0);
  ASSERT_FALSE(gain.ok());
  EXPECT_EQ(gain.status().code(), StatusCode::kFailedPrecondition)
      << gain.status().ToString();
  EXPECT_NE(gain.status().message().find("poisoned"), std::string::npos);

  // ResetSession rebuilds a consistent (empty) session; the slot with a
  // live server answers... but slot 1 is dead, so queries surface the
  // transport failure again — Unavailable, not the stale poison.
  ASSERT_TRUE((*remote)->ResetSession().ok());
  auto after = (*remote)->MarginalGain(0);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable)
      << after.status().ToString();
}

// ------------------------------------------------ tracing under chaos

TEST(NetChaosTest, FailoverMidChainYieldsOneStitchedTrace) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  ReplicatedFleet fleet = StartReplicatedFleet(fixture.dir, 2);
  auto remote =
      RemoteShardRouter::Connect(FastRetryOptions(fleet.replica_sets));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  TraceCollector collector;
  (*remote)->set_trace_collector(&collector);

  // A seed node's gain is nonzero, so the query crosses the wire. One
  // trace scope covers two gains: the first records the active replicas'
  // spans, then the fold is broken mid-chain — slot 0's active replica
  // drops the connection between fold steps — and the second gain fails
  // over. The result must be the exact bits, inside ONE stitched trace
  // holding spans from BOTH replicas of the failed slot plus an
  // annotated failover marker.
  const NodeId node = fixture.expected.seeds[0];
  ASSERT_TRUE(collector.StartTrace(kSpanQueryGain, node));
  auto before = (*remote)->MarginalGain(node);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  auto spec = ParseFailpointSpec("error@0#1");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ArmFailpoint("net.server.fold_step", *spec).ok());
  auto gain = (*remote)->MarginalGain(node);
  collector.EndTrace();
  DisarmAllFailpoints();
  ASSERT_TRUE(gain.ok()) << gain.status().ToString();
  EXPECT_TRUE(SameBits(*gain, fixture.expected_gains[node]));
  EXPECT_TRUE(SameBits(*before, *gain));

  const std::vector<TraceRecord> traces = collector.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const TraceRecord& trace = traces[0];
  EXPECT_GE(trace.failovers, 1u);
  EXPECT_GT(trace.remote_spans, 0u);

  bool has_failover_span = false;
  std::set<std::uint32_t> failed_slot_replicas;
  std::uint32_t failover_slot = 0;
  for (const TraceSpan& s : trace.spans) {
    if (s.rec.name_id == kSpanNetFailover) {
      has_failover_span = true;
      EXPECT_NE(s.rec.flags & kSpanFlagFailover, 0);
      failover_slot = s.rec.origin >> 8;  // the replica being abandoned
      EXPECT_GT(failover_slot, 0u);
    }
  }
  ASSERT_TRUE(has_failover_span);
  for (const TraceSpan& s : trace.spans) {
    if ((s.rec.flags & kSpanFlagRemote) != 0 &&
        (s.rec.origin >> 8) == failover_slot) {
      failed_slot_replicas.insert(s.rec.origin & 0xffu);
    }
  }
  // The failed attempt's spans (shipped on the error response) and the
  // surviving replica's spans live in the same stitched trace.
  EXPECT_GE(failed_slot_replicas.size(), 2u);
}

// -------------------------------------------------- deadline handling

TEST(NetChaosTest, InjectedServerDelayTripsClientDeadline) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  ShardServerOptions options;
  options.dir = fixture.dir;
  auto server = ShardServer::Start(options);
  ASSERT_TRUE(server.ok());

  RemoteRouterOptions ropts;
  ropts.replica_sets = {{{"127.0.0.1", (*server)->port()}}};
  ropts.retry.max_attempts = 1;
  ropts.rpc_deadline_ms = 150;
  auto remote = RemoteShardRouter::Connect(ropts);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  // The server sleeps past the propagated deadline; the client gives
  // up at its own 150ms budget instead of waiting out the stall.
  auto spec = ParseFailpointSpec("delay:400#1");
  ASSERT_TRUE(spec.ok());
  ASSERT_TRUE(ArmFailpoint("net.server.request", *spec).ok());
  auto gain = (*remote)->MarginalGain(0);
  DisarmAllFailpoints();
  ASSERT_FALSE(gain.ok());
  EXPECT_EQ(gain.status().code(), StatusCode::kUnavailable)
      << gain.status().ToString();

  // The router recovers: the next query (fresh deadline, reconnect)
  // answers fine.
  auto recovered = (*remote)->MarginalGain(0);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(SameBits(*recovered, fixture.expected_gains[0]));
}

TEST(NetChaosTest, ServerRefusesFrameWhoseDeadlineAlreadyExpired) {
  const ChaosFixture& fixture = ChaosFixture::Get();
  ShardServerOptions options;
  options.dir = fixture.dir;
  auto server = ShardServer::Start(options);
  ASSERT_TRUE(server.ok());

  // The frame header carries the REMAINING budget at send time;
  // deadline_us = 0 decodes as already expired, so the server must
  // refuse before doing any fold work — the check that keeps a
  // congested server from burning cycles on answers nobody is still
  // waiting for.
  auto conn = TcpConn::Connect("127.0.0.1", (*server)->port(),
                               Deadline::AfterMs(2000));
  ASSERT_TRUE(conn.ok());
  const std::uint64_t late_before =
      CounterValue("net.server.deadline_exceeded");
  Frame ping;
  ping.header.type = static_cast<std::uint8_t>(MsgType::kPing);
  ping.header.deadline_us = 0;
  ASSERT_TRUE(SendFrame(*conn, std::move(ping), Deadline::AfterMs(2000)).ok());
  auto reply = RecvFrame(*conn, Deadline::AfterMs(2000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->header.type, static_cast<std::uint8_t>(MsgType::kError));
  BufferReader payload(reply->payload);
  auto error = DecodeError(&payload);
  ASSERT_TRUE(error.ok());
  const Status refused = StatusFromError(*error);
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_NE(refused.message().find("deadline expired"), std::string::npos)
      << refused.ToString();
  EXPECT_GT(CounterValue("net.server.deadline_exceeded"), late_before);
}

}  // namespace
}  // namespace influmax
