// The repository benchmark (perfbench/README.md): one program, two
// workloads over seeded synthetic flixster_small data with time-decay
// credit (Eq. 9), lambda = 0.001 and 4 action-range shards.
//
//   perfbench --workload=serve_local|serve_remote
//       --seed=N --seconds=S --trace=0|1 --server_bin=PATH
//       --work_dir=DIR --out_dir=DIR
//
// --trace=0 prints the end-to-end metrics; --trace=1 runs the same
// workload with tracing attached and prints the per-layer metrics, and
// also writes <out_dir>/<workload>-seed<N>.layers.json and .trace.json
// (Chrome trace-event format). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every answer is checked;
// a wrong one counts as a failed operation and the exit code is 1.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "actionlog/action_log.h"
#include "actionlog/propagation_dag.h"
#include "common/binary_io.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/cd_model.h"
#include "core/direct_credit.h"
#include "datagen/cascade_generator.h"
#include "graph/graph.h"
#include "fleet.h"
#include "loadgen.h"
#include "net/remote_router.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/span_names.h"
#include "obs/trace.h"
#include "probability/time_params.h"
#include "serve/query_engine.h"
#include "shard/generation_manager.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"
#include "shard/shard_writer.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using influmax::ActionId;
using influmax::ActionLog;
using influmax::CdConfig;
using influmax::CreditDistributionModel;
using influmax::GenerationManager;
using influmax::NodeId;
using influmax::RemoteShardRouter;
using influmax::Result;
using influmax::Rng;
using influmax::ShardRouter;
using influmax::SnapshotSeedSelection;
using influmax::Status;

constexpr double kLambda = 0.001;
constexpr std::size_t kShards = 4;
constexpr NodeId kTopK = 50;
constexpr std::size_t kWhatifCommits = 5;
constexpr std::size_t kWhatifGains = 20;
constexpr std::size_t kRungs = 6;
// The open-loop gain ladder (serve_remote): offered gains/s, ascending,
// bracketing the ~9-12k/s capacity of one remote router on the reference
// host; each rung runs max(kRungMinOps, rate * kRungSeconds) arrivals and
// meets the limit when its windowed p99 is within kP99LimitUs.
constexpr std::array<double, kRungs> kRungRates = {1.75e3, 3.5e3, 7e3,
                                                   14e3,   28e3,  56e3};
constexpr std::size_t kRungMinOps = 4500;
constexpr double kRungSeconds = 0.5;
constexpr double kP99LimitUs = 10000.0;

// A run serves rounds for this share of --seconds, with one more build
// cycle (into a directory of its own) after every kRoundsPerCycle
// rounds, so the build metrics sample the whole run as the serving
// metrics do.
constexpr double kServeShare = 0.85;
constexpr std::size_t kRoundsPerCycle = 2;

/// Everything that differs between the two workloads.
struct WorkloadSpec {
  const char* name;
  bool remote;            // serve through shard_server children
  std::size_t gains;      // per serving round
  std::size_t whatifs;    // sessions per serving round
  std::size_t topks;      // per serving round
  std::size_t setup_reps;
};

const WorkloadSpec kWorkloads[] = {
    {"serve_local", false, 40000, 80, 4, 15},
    {"serve_remote", true, 4000, 80, 2, 5},
};

std::size_t RungOps(std::size_t k) {
  return std::max(kRungMinOps,
                  static_cast<std::size_t>(kRungRates[k] * kRungSeconds));
}

// Threads of the build pipeline (scan, CommitSeed inside the CELF
// select, per-shard ingest). Fixed, never 0 (= all hardware threads).
// One, not two: with two, identical x2 cycles on a 4-vCPU virtual machine
// varied 0.68-1.19 s in select_s and 770-950 MB in peak RSS; with one,
// 1.18-1.21 s and 948-949 MB.
constexpr std::size_t kBuildThreads = 1;

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + tag);
  return rng() | 1;  // never 0: 0 means "preset default" to the generator
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename A, typename B>
bool SameSelection(const A& a, const B& b) {
  if (a.seeds != b.seeds || a.gain_evaluations != b.gain_evaluations ||
      a.marginal_gains.size() != b.marginal_gains.size() ||
      a.cumulative_spread.size() != b.cumulative_spread.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.marginal_gains.size(); ++i) {
    if (!SameBits(a.marginal_gains[i], b.marginal_gains[i]) ||
        !SameBits(a.cumulative_spread[i], b.cumulative_spread[i])) {
      return false;
    }
  }
  return true;
}

/// Attempted / failed operation ledger; a wrong answer is a failure.
class Outcome {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) Fail(what);
  }
  void Ops(std::size_t attempted, std::size_t failed, const std::string& what) {
    attempted_ += attempted;
    for (std::size_t i = 0; i < failed; ++i) Fail(what);
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  void Fail(const std::string& what) {
    ++failed_;
    if (failed_ <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Coarse spans the benchmark records around its calls into each layer
/// (trace runs only); exported next to the collector's RPC spans.
class PhaseLog {
 public:
  struct Span {
    const char* name;  // a string literal
    std::uint64_t start_ns;
    std::uint64_t duration_ns;
  };

  explicit PhaseLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t Begin() const { return enabled_ ? NowNs() : 0; }
  void End(const char* name, std::uint64_t start_ns) {
    if (enabled_) spans_.push_back({name, start_ns, NowNs() - start_ns});
  }
  void Append(const Span& span) { spans_.push_back(span); }
  std::string ChromeEvents() const {
    std::string out;
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    "%s  {\"name\":\"bench.%s\",\"ph\":\"X\",\"pid\":4096,"
                    "\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                    out.empty() ? "" : ",\n", s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.duration_ns) / 1e3);
      out += buf;
    }
    if (!out.empty()) {
      out +=
          ",\n  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4096,"
          "\"args\":{\"name\":\"perfbench phases\"}}";
    }
    return out;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Removes its directory (recursively) on destruction.
class TempDir {
 public:
  explicit TempDir(fs::path path) : path_(std::move(path)) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ------------------------------------------------------------ inputs

/// The benchmark's data: the flixster_small preset's own fixed-size
/// graph and log, with every user relabeled by a seeded permutation.
/// Reseeding the generator instead changed the work itself (credit
/// entries ranged over 1.3M-2.1M at x1), so run-to-run spread measured
/// the data draw rather than the code; relabeling keeps the work fixed
/// while the seed still moves the memory layout and, with it, every op
/// stream.
struct Dataset {
  influmax::Graph graph;
  ActionLog log;
};

Result<Dataset> MakeDataset(std::uint64_t seed) {
  auto base = influmax::BuildPresetDataset(influmax::FlixsterSmallPreset(1.0));
  if (!base.ok()) return base.status();
  const NodeId n = base->graph.num_nodes();
  std::vector<NodeId> label(n);
  std::iota(label.begin(), label.end(), NodeId{0});
  Rng rng(SubSeed(seed, 1));
  for (NodeId i = n; i > 1; --i) std::swap(label[i - 1], label[rng.NextBounded(i)]);
  influmax::GraphBuilder graph(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : base->graph.OutNeighbors(u)) graph.AddEdge(label[u], label[v]);
  }
  influmax::ActionLogBuilder log(n);
  for (const influmax::ActionTuple& t : base->log.tuples()) {
    log.Add(label[t.user], t.action, t.time);  // dense ids keep their order
  }
  auto built_graph = graph.Build();
  if (!built_graph.ok()) return built_graph.status();
  auto built_log = log.Build();
  if (!built_log.ok()) return built_log.status();
  return Dataset{std::move(built_graph).value(), std::move(built_log).value()};
}

/// The training log (first 90% of actions), its learned Eq. 9
/// parameters, and the time-decay credit model over them.
struct ModelInputs {
  ActionLog train;
  std::unique_ptr<influmax::InfluenceTimeParams> params;
  std::unique_ptr<influmax::TimeDecayDirectCredit> credit;
};

Result<ModelInputs> PrepareModelInputs(const Dataset& data) {
  ModelInputs in;
  const ActionId actions = data.log.num_actions();
  std::vector<ActionId> first(actions - actions / 10);
  std::iota(first.begin(), first.end(), ActionId{0});
  in.train = data.log.RestrictToActions(first);
  auto params = influmax::LearnTimeParams(data.graph, in.train);
  if (!params.ok()) return params.status();
  in.params = std::make_unique<influmax::InfluenceTimeParams>(
      std::move(params).value());
  in.credit = std::make_unique<influmax::TimeDecayDirectCredit>(*in.params);
  return in;
}

CdConfig MakeConfig() {
  CdConfig config;
  config.truncation_threshold = kLambda;
  config.scan_threads = kBuildThreads;
  config.select_threads = kBuildThreads;
  return config;
}

// ------------------------------------------------------- build cycle

struct CycleResult {
  double scan_s = 0, write_s = 0, open_s = 0, build_s = 0;
  double select_s = 0, topk_ms = 0, ingest_s = 0;
  std::uint64_t credit_entries = 0, gain_evals = 0, snapshot_bytes = 0;
  std::uint64_t replayed_tuples = 0, new_actions = 0;
  double peak_rss_mb = 0;  // VmHWM of the process that ran the cycle
};

/// One build cycle into `dir`: Build over the training log, write the
/// 4-shard generation, flip CURRENT, open it (build_s); live-model
/// SelectSeeds(50) (select_s), checked bit for bit against the fresh
/// generation's TopKSeeds(50); then IngestLog of the full log (ingest_s).
/// Leaves the ingested generation in `dir`.
Status RunBuildCycle(const Dataset& data,
                     const ModelInputs& in, const fs::path& dir,
                     PhaseLog& phases, Outcome& outcome, CycleResult* r) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir.string());
  const CdConfig config = MakeConfig();

  std::unique_ptr<GenerationManager> manager;
  CreditDistributionModel::SeedSelection selection;
  {
    const std::uint64_t t_build = NowNs();
    std::uint64_t t = phases.Begin();
    auto model = CreditDistributionModel::Build(data.graph, in.train,
                                                *in.credit, config);
    if (!model.ok()) return model.status();
    r->scan_s = SecondsSince(t_build);
    phases.End("core.scan", t);
    r->credit_entries = model->credit_entries();

    const std::uint64_t t_write = NowNs();
    t = phases.Begin();
    influmax::ShardedSnapshotWriter writer(dir.string(), kShards);
    influmax::ShardManifest manifest;
    INFLUMAX_RETURN_IF_ERROR(writer.WriteFromModel(*model, 1, &manifest));
    INFLUMAX_RETURN_IF_ERROR(influmax::WriteCurrentManifestName(
        dir.string(), influmax::ManifestFileName(1)));
    r->write_s = SecondsSince(t_write);
    phases.End("shard.write", t);

    const std::uint64_t t_open = NowNs();
    t = phases.Begin();
    auto opened = GenerationManager::Open(dir.string());
    if (!opened.ok()) return opened.status();
    manager = std::move(opened).value();
    r->open_s = SecondsSince(t_open);
    r->build_s = SecondsSince(t_build);
    phases.End("shard.open", t);

    r->snapshot_bytes = 0;
    for (const std::string& file : manifest.shard_files) {
      r->snapshot_bytes += fs::file_size(dir / file, ec);
    }

    const std::uint64_t t_select = NowNs();
    t = phases.Begin();
    auto selected = model->SelectSeeds(kTopK);
    if (!selected.ok()) return selected.status();
    r->select_s = SecondsSince(t_select);
    phases.End("core.select", t);
    selection = std::move(selected).value();
  }  // the live model is released before the check and the ingest

  {
    GenerationManager::Session session(*manager);
    const std::uint64_t t_topk = NowNs();
    const std::uint64_t t = phases.Begin();
    const SnapshotSeedSelection topk = session.router().TopKSeeds(kTopK);
    r->topk_ms = SecondsSince(t_topk) * 1e3;
    phases.End("serve.topk_check", t);
    r->gain_evals = topk.gain_evaluations;
    outcome.Op(SameSelection(selection, topk),
               "live SelectSeeds(50) != fresh generation TopKSeeds(50)");
  }

  const std::uint64_t t_ingest = NowNs();
  const std::uint64_t t = phases.Begin();
  influmax::IngestStats stats;
  INFLUMAX_RETURN_IF_ERROR(manager->IngestLog(data.log, data.graph,
                                              *in.credit, config,
                                              kBuildThreads, &stats));
  r->ingest_s = SecondsSince(t_ingest);
  phases.End("shard.ingest", t);
  r->replayed_tuples = stats.replayed_tuples;
  r->new_actions = stats.new_actions;
  outcome.Op(stats.generation == 2 && stats.new_actions > 0,
             "ingest did not publish generation 2 with new actions");
  return Status::OK();
}

/// Runs one build cycle in a forked child, so every cycle starts from a
/// clean heap and its VmHWM is its own (heap the build threads kept from
/// an earlier cycle otherwise moved peak RSS by 20%), and the serving
/// process of the serve workloads never holds the build's memory. The
/// child ships its result, check counts and phase spans back over a
/// pipe. Call only while this process has one thread: that is what
/// makes the fork safe.
Status RunCycleInChild(const Dataset& data, const ModelInputs& in,
                       const fs::path& dir, PhaseLog& phases,
                       Outcome& outcome, CycleResult* r) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::IoError("pipe");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IoError("fork");
  }
  if (pid == 0) {
    ::close(fds[0]);
    PhaseLog child_phases(phases.enabled());
    Outcome child_outcome;
    CycleResult result;
    const Status st =
        RunBuildCycle(data, in, dir, child_phases, child_outcome, &result);
    if (!st.ok()) {
      std::fprintf(stderr, "build cycle: %s\n", st.ToString().c_str());
    }
    result.peak_rss_mb = static_cast<double>(PeakRssOf(0)) / 1e6;
    const std::uint64_t header[4] = {st.ok() ? 1u : 0u,
                                     child_outcome.attempted(),
                                     child_outcome.failed(),
                                     child_phases.spans().size()};
    std::string bytes(reinterpret_cast<const char*>(header), sizeof(header));
    bytes.append(reinterpret_cast<const char*>(&result), sizeof(result));
    bytes.append(reinterpret_cast<const char*>(child_phases.spans().data()),
                 child_phases.spans().size() * sizeof(PhaseLog::Span));
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::write(fds[1], bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) != 0) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  while (::waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
  }
  std::uint64_t header[4];
  if (bytes.size() < sizeof(header) + sizeof(CycleResult)) {
    return Status::Internal("build cycle child died");
  }
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != 1) return Status::Internal("build cycle failed");
  if (bytes.size() !=
      sizeof(header) + sizeof(CycleResult) + header[3] * sizeof(PhaseLog::Span)) {
    return Status::Internal("build cycle child sent a short result");
  }
  outcome.Ops(header[1], header[2], "build cycle check failed");
  std::memcpy(r, bytes.data() + sizeof(header), sizeof(CycleResult));
  for (std::uint64_t i = 0; i < header[3]; ++i) {
    PhaseLog::Span span;
    std::memcpy(&span,
                bytes.data() + sizeof(header) + sizeof(CycleResult) +
                    i * sizeof(PhaseLog::Span),
                sizeof(span));
    phases.Append(span);  // names are literals: same address after fork
  }
  return Status::OK();
}

/// One build cycle into `dir`, appended to `cycles` and printed.
Status RunCycle(const Dataset& data, const ModelInputs& in,
                const fs::path& dir, PhaseLog& phases, Outcome& outcome,
                std::vector<CycleResult>* cycles) {
  CycleResult r;
  INFLUMAX_RETURN_IF_ERROR(RunCycleInChild(data, in, dir, phases, outcome, &r));
  std::printf("cycle %zu: scan %.3fs write %.3fs open %.3fs select %.3fs "
              "topk %.1fms ingest %.3fs peak %.0fMB (%" PRIu64
              " credit entries)\n",
              cycles->size(), r.scan_s, r.write_s, r.open_s, r.select_s,
              r.topk_ms, r.ingest_s, r.peak_rss_mb, r.credit_entries);
  cycles->push_back(r);
  return Status::OK();
}

// ---------------------------------------------------------- op streams

/// The serving op streams of one run, a pure function of the seed and
/// the generation's active users; every round replays them.
struct OpStreams {
  std::vector<NodeId> gains;
  std::vector<std::array<NodeId, kWhatifCommits>> commits;
  std::vector<std::array<NodeId, kWhatifGains>> whatif_gains;
  std::vector<NodeId> ladder;  // every rung's arrivals, rung after rung
};

OpStreams MakeOpStreams(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::vector<std::uint32_t>& au,
                        bool with_ladder) {
  // Every target is a user drawn with probability proportional to A_u,
  // the actions the user performed in the served generation: users are
  // queried as often as they act. The weights come from the data, so
  // the same preset users carry the same weight under every seed; the
  // seed picks the labels and the sequence of draws.
  std::vector<NodeId> users;
  std::vector<std::uint64_t> cumulative;  // running sum of A_u
  for (NodeId u = 0; u < au.size(); ++u) {
    if (au[u] == 0) continue;
    users.push_back(u);
    cumulative.push_back((cumulative.empty() ? 0 : cumulative.back()) + au[u]);
  }
  //
  // Each stream is a systematic sample: n points evenly spaced over the
  // cumulative action count from a seeded start, visited in a seeded
  // order. Every target is still a user drawn with probability
  // proportional to A_u, but a stream of n targets holds each user within
  // one of its expected count. Independent draws made the work itself
  // depend on the seed: one seed's x2 what-if sessions read 19-22 ms in
  // every round of its run, other seeds' 14-17 ms.
  Rng rng(SubSeed(seed, 3));
  const auto user_at = [&](std::uint64_t r) {
    return users[std::upper_bound(cumulative.begin(), cumulative.end(), r) -
                 cumulative.begin()];
  };
  const auto sample = [&](std::size_t n) {
    std::vector<NodeId> out(n);
    if (n == 0) return out;
    const double step = static_cast<double>(cumulative.back()) / n;
    const double start = rng.NextDouble() * step;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = user_at(static_cast<std::uint64_t>(start + i * step));
    }
    for (std::size_t i = n; i > 1; --i) {
      std::swap(out[i - 1], out[rng.NextBounded(i)]);
    }
    return out;
  };
  // What-if sessions are dealt from strata: the stream's sample, ordered
  // by A_u, is cut into `per` strata of `sessions` targets, each
  // shuffled, and session s takes the s-th target of every stratum, so
  // every session mixes heavy and light users alike. With the sample
  // merely shuffled into sessions, a seed that happened to group heavy
  // users read 21-28 ms per x2 what-if session in every round
  // of its run, where other seeds read 15-19 ms.
  const auto deal = [&](std::size_t sessions, std::size_t per) {
    std::vector<NodeId> pool = sample(sessions * per);
    std::stable_sort(pool.begin(), pool.end(),
                     [&au](NodeId a, NodeId b) { return au[a] > au[b]; });
    std::vector<NodeId> out(pool.size());
    for (std::size_t c = 0; c < per; ++c) {
      const auto stratum = pool.begin() + static_cast<long>(c * sessions);
      for (std::size_t i = sessions; i > 1; --i) {
        std::iter_swap(stratum + static_cast<long>(i - 1),
                       stratum + static_cast<long>(rng.NextBounded(i)));
      }
      for (std::size_t s = 0; s < sessions; ++s) {
        out[s * per + c] = *(stratum + static_cast<long>(s));
      }
    }
    return out;
  };
  OpStreams ops;
  ops.gains = sample(spec.gains);
  // A session commits distinct users: a repeat is swapped with the first
  // later target the session does not hold yet.
  std::vector<NodeId> commits = deal(spec.whatifs, kWhatifCommits);
  const std::vector<NodeId> whatif_gains = deal(spec.whatifs, kWhatifGains);
  ops.commits.resize(spec.whatifs);
  ops.whatif_gains.resize(spec.whatifs);
  for (std::size_t s = 0; s < spec.whatifs; ++s) {
    const auto first = commits.begin() + static_cast<long>(s * kWhatifCommits);
    for (std::size_t c = 0; c < kWhatifCommits; ++c) {
      const auto held = [&](NodeId x) {
        return std::find(first, first + static_cast<long>(c), x) !=
               first + static_cast<long>(c);
      };
      auto it = first + static_cast<long>(c);
      while (it != commits.end() && held(*it)) ++it;
      if (it == commits.end()) {  // no distinct target left: draw one
        do {
          *(first + static_cast<long>(c)) =
              user_at(rng.NextBounded(cumulative.back()));
        } while (held(*(first + static_cast<long>(c))));
      } else {
        std::iter_swap(first + static_cast<long>(c), it);
      }
      ops.commits[s][c] = *(first + static_cast<long>(c));
    }
    std::copy_n(whatif_gains.begin() + static_cast<long>(s * kWhatifGains),
                kWhatifGains, ops.whatif_gains[s].begin());
  }
  std::size_t ladder_ops = 0;
  if (with_ladder) {
    for (std::size_t k = 0; k < kRungs; ++k) ladder_ops += RungOps(k);
  }
  ops.ladder = sample(ladder_ops);
  return ops;
}

/// A serving front-end: the in-process ShardRouter or the remote one.
struct Backend {
  std::function<Result<double>(NodeId)> gain;
  std::function<Status(NodeId)> commit;
  std::function<Status()> reset;
  std::function<Result<SnapshotSeedSelection>()> topk;
};

Backend LocalBackend(ShardRouter& router) {
  return {[&router](NodeId x) -> Result<double> {
            return router.MarginalGain(x);
          },
          [&router](NodeId x) {
            router.CommitSeed(x);
            return Status::OK();
          },
          [&router] {
            router.ResetSession();
            return Status::OK();
          },
          [&router]() -> Result<SnapshotSeedSelection> {
            return router.TopKSeeds(kTopK);
          }};
}

Backend RemoteBackend(RemoteShardRouter& router) {
  return {[&router](NodeId x) { return router.MarginalGain(x); },
          [&router](NodeId x) { return router.CommitSeed(x); },
          [&router] { return router.ResetSession(); },
          [&router] { return router.TopKSeeds(kTopK); }};
}

/// Reference answers from a separate in-process session over the same
/// generation; every measured answer must equal them bit for bit.
struct Expected {
  std::vector<double> gains;
  std::vector<double> whatif;  // whatifs * kWhatifGains
  SnapshotSeedSelection topk;
  std::vector<double> ladder;
};

Expected ComputeExpected(ShardRouter& router, const OpStreams& ops) {
  Expected e;
  router.ResetSession();
  for (NodeId x : ops.gains) e.gains.push_back(router.MarginalGain(x));
  for (NodeId x : ops.ladder) e.ladder.push_back(router.MarginalGain(x));
  for (std::size_t s = 0; s < ops.commits.size(); ++s) {
    for (NodeId x : ops.commits[s]) router.CommitSeed(x);
    for (NodeId x : ops.whatif_gains[s]) {
      e.whatif.push_back(router.MarginalGain(x));
    }
    router.ResetSession();
  }
  e.topk = router.TopKSeeds(kTopK);
  router.ResetSession();
  return e;
}

struct ServeSamples {
  std::vector<double> gain_us;
  double gain_phase_s = 0.0;  // wall time of every closed-loop gain phase
  std::vector<double> whatif_ms;
  std::vector<double> commit_us;
  std::vector<double> reset_us;
  std::vector<double> topk_ms;
};

/// Where one serving round's samples start.
struct RoundMark {
  std::size_t gains, whatifs, topks;
  double gain_phase_s;
};

RoundMark MarkRound(const ServeSamples& s) {
  return {s.gain_us.size(), s.whatif_ms.size(), s.topk_ms.size(),
          s.gain_phase_s};
}

/// One serving round's own figures.
struct RoundFigures {
  double gain_p50_us, gain_p99_us, rate_ops_s, whatif_p50_ms, topk_p50_ms;
};

RoundFigures FiguresSince(const ServeSamples& s, const RoundMark& m) {
  const auto tail = [](const std::vector<double>& v, std::size_t from) {
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(from),
                               v.end());
  };
  const std::vector<double> gains = tail(s.gain_us, m.gains);
  return {Quantile(gains, 0.5), Quantile(gains, 0.99),
          static_cast<double>(gains.size()) / (s.gain_phase_s - m.gain_phase_s),
          Median(tail(s.whatif_ms, m.whatifs)), Median(tail(s.topk_ms, m.topks))};
}

void RunGainPhase(Backend& b, const OpStreams& ops, const Expected& e,
                  Outcome& outcome, ServeSamples* s) {
  std::size_t failed = 0;
  const std::uint64_t start = NowNs();
  for (std::size_t i = 0; i < ops.gains.size(); ++i) {
    const std::uint64_t t = NowNs();
    const Result<double> g = b.gain(ops.gains[i]);
    s->gain_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    if (!g.ok() || !SameBits(*g, e.gains[i])) ++failed;
  }
  s->gain_phase_s += SecondsSince(start);
  outcome.Ops(ops.gains.size(), failed, "gain answer differs from reference");
}

void RunWhatifPhase(Backend& b, const OpStreams& ops, const Expected& e,
                    Outcome& outcome, ServeSamples* s) {
  for (std::size_t k = 0; k < ops.commits.size(); ++k) {
    const std::uint64_t t_session = NowNs();
    bool ok = true;
    for (NodeId x : ops.commits[k]) {
      const std::uint64_t t = NowNs();
      ok = b.commit(x).ok() && ok;
      s->commit_us.push_back(static_cast<double>(NowNs() - t) * 1e-3);
    }
    for (std::size_t i = 0; i < kWhatifGains; ++i) {
      const Result<double> g = b.gain(ops.whatif_gains[k][i]);
      ok = ok && g.ok() && SameBits(*g, e.whatif[k * kWhatifGains + i]);
    }
    const std::uint64_t t_reset = NowNs();
    ok = b.reset().ok() && ok;
    const std::uint64_t done = NowNs();
    s->reset_us.push_back(static_cast<double>(done - t_reset) * 1e-3);
    s->whatif_ms.push_back(static_cast<double>(done - t_session) * 1e-6);
    outcome.Op(ok, "what-if session answer differs from reference");
  }
}

void RunTopkPhase(Backend& b, std::size_t count, const Expected& e,
                  Outcome& outcome, ServeSamples* s) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t t = NowNs();
    const Result<SnapshotSeedSelection> sel = b.topk();
    s->topk_ms.push_back(static_cast<double>(NowNs() - t) * 1e-6);
    outcome.Op(sel.ok() && SameSelection(*sel, e.topk),
               "TopKSeeds(50) differs from reference");
    outcome.Op(b.reset().ok(), "reset after topk failed");
  }
}

/// The open-loop gain ladder; every answer checked against the reference.
std::vector<RungResult> RunLadder(Backend& b, const OpStreams& ops,
                                  const Expected& e, std::uint64_t seed,
                                  Outcome& outcome, PhaseLog& phases) {
  std::vector<RungResult> rungs;
  std::size_t base = 0;
  for (std::size_t k = 0; k < kRungs; ++k) {
    const std::uint64_t t = phases.Begin();
    RungResult r = RunOpenLoopRung(
        kRungRates[k], RungOps(k), SubSeed(seed, 100 + k), kP99LimitUs,
        [&](std::size_t i) {
          const Result<double> g = b.gain(ops.ladder[base + i]);
          return g.ok() && SameBits(*g, e.ladder[base + i]);
        });
    phases.End("loadgen.rung", t);
    base += r.ops;
    outcome.Ops(r.ops, r.failed, "ladder gain differs from reference");
    const bool passed = r.passed;
    std::printf("rung %zu: offered %.0f/s delivered %.1f/s p50 %.2f us "
                "p99 %.2f us late-p99 %.2f us%s%s -> %s\n",
                k, r.rate_ops_s, r.delivered_ops_s,
                Quantile(r.latency_us, 0.5),
                WindowedQuantile(r.latency_us, 0.99),
                WindowedQuantile(r.late_us, 0.99), r.backlog_grew ? " backlog" : "",
                r.generator_late ? " INVALID(generator late)" : "",
                r.passed ? "meets limit" : "misses limit");
    rungs.push_back(std::move(r));
    if (!passed) break;  // higher rungs would only queue longer
  }
  return rungs;
}

/// Delivered rate of the highest rung of the passing prefix. Rung 0 is
/// sized to pass; if it does not, its delivered rate is reported and the
/// miss is printed.
double MaxRate(const std::vector<RungResult>& rungs) {
  std::size_t best = 0;
  while (best + 1 < rungs.size() && rungs[best].passed &&
         rungs[best + 1].passed) {
    ++best;
  }
  if (!rungs[0].passed) {
    std::printf("warning: the lowest rung misses the p99 limit\n");
  }
  return rungs[best].delivered_ops_s;
}

// ----------------------------------------------------- per-layer probes

/// Kernel / engine / router split of the routed gain on the gain op
/// stream: the router pass against the summed per-shard
/// AccumulateGainTerms pass, interleaved, medians of 5 pairs.
void ProbeGainLayers(ShardRouter& router, const influmax::ShardedSnapshot& snap,
                     const std::vector<NodeId>& nodes,
                     std::map<std::string, double>* layers) {
  router.ResetSession();
  std::vector<double> router_ns;
  std::vector<double> terms_ns;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t t = NowNs();
    for (NodeId x : nodes) sink += router.MarginalGain(x);
    router_ns.push_back(static_cast<double>(NowNs() - t));
    t = NowNs();
    for (NodeId x : nodes) {
      double acc = 0.0;
      for (std::size_t i = 0; i < router.num_shards(); ++i) {
        acc = router.shard_engine(i).AccumulateGainTerms(x, acc);
      }
      sink += acc;
    }
    terms_ns.push_back(static_cast<double>(NowNs() - t));
  }
  std::uint64_t entries = 0;
  for (NodeId x : nodes) {
    for (const influmax::CreditSnapshotView& view : snap.views) {
      const auto uo = view.user_offsets();
      const auto fc = view.fwd_count();
      for (std::uint64_t s = uo[x]; s < uo[x + 1]; ++s) entries += fc[s];
    }
  }
  const double n = static_cast<double>(nodes.size());
  const double terms = Median(terms_ns);
  (*layers)["serve.engine.terms_us"] = terms / n * 1e-3;
  (*layers)["shard.router.overhead_us"] = (Median(router_ns) - terms) / n * 1e-3;
  (*layers)["serve.kernel.entries_per_gain"] =
      static_cast<double>(entries) / n;
  (*layers)["serve.kernel.ns_per_entry"] =
      entries == 0 ? 0.0 : terms / static_cast<double>(entries);
  if (sink < 0) std::printf("negative gain sum\n");  // keeps the passes live
}

/// Overlay growth per commit on a fresh session, and the share of a
/// TopKSeeds(50) that its 50 commits take (replayed and timed alone).
void ProbeSessionLayers(GenerationManager& manager, const OpStreams& ops,
                        const Expected& e,
                        std::map<std::string, double>* layers) {
  GenerationManager::Session session(manager);
  ShardRouter& router = session.router();
  if (!ops.commits.empty()) {
    const std::uint64_t before = router.ApproxMemoryBytes();
    for (NodeId x : ops.commits[0]) router.CommitSeed(x);
    const std::uint64_t after = router.ApproxMemoryBytes();
    (*layers)["serve.overlay_bytes_per_commit"] =
        static_cast<double>(after - before) / kWhatifCommits;
    router.ResetSession();
  }
  std::vector<double> shares;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t t = NowNs();
    router.TopKSeeds(kTopK);
    const double topk = static_cast<double>(NowNs() - t);
    router.ResetSession();
    t = NowNs();
    for (NodeId x : e.topk.seeds) router.CommitSeed(x);
    shares.push_back(static_cast<double>(NowNs() - t) / topk);
    router.ResetSession();
  }
  (*layers)["serve.topk.commit_share"] = Median(shares);
}

/// The traced per-layer run over the remote router: net.* span
/// breakdown of a closed-loop gain pass, counter deltas, the envelope
/// check of every stitched trace, and the tracing overhead ratio.
void ProbeRemoteLayers(RemoteShardRouter& remote, const OpStreams& ops,
                       const Expected& e, Outcome& outcome,
                       const std::string& trace_path, const PhaseLog& phases,
                       std::map<std::string, double>* layers) {
  using influmax::MetricsRegistry;
  const auto counter = [](const char* name) -> double {
    const influmax::MetricsSnapshot snap = MetricsRegistry::Global().Scrape();
    const auto* c = snap.FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value);
  };
  influmax::TraceCollectorOptions options;
  options.ring_capacity = ops.gains.size();
  influmax::TraceCollector collector(options);

  // Interleaved traced / untraced chunks over the same gain stream.
  const std::size_t chunks = 4;
  const std::size_t per = ops.gains.size() / chunks;
  double traced_ns = 0.0;
  double plain_ns = 0.0;
  double rpcs_plain = 0.0;
  std::size_t failed = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const double rpc0 = counter("net.rpc.count");
    std::uint64_t t = NowNs();
    for (std::size_t i = c * per; i < (c + 1) * per; ++i) {
      const Result<double> g = remote.MarginalGain(ops.gains[i]);
      if (!g.ok() || !SameBits(*g, e.gains[i])) ++failed;
    }
    plain_ns += static_cast<double>(NowNs() - t);
    rpcs_plain += counter("net.rpc.count") - rpc0;
    remote.set_trace_collector(&collector);
    t = NowNs();
    for (std::size_t i = c * per; i < (c + 1) * per; ++i) {
      collector.StartTrace(influmax::kSpanQueryGain, ops.gains[i]);
      const Result<double> g = remote.MarginalGain(ops.gains[i]);
      collector.EndTrace();
      if (!g.ok() || !SameBits(*g, e.gains[i])) ++failed;
    }
    traced_ns += static_cast<double>(NowNs() - t);
    remote.set_trace_collector(nullptr);
  }
  outcome.Ops(2 * chunks * per, failed, "traced gain differs from reference");
  (*layers)["obs.trace_overhead_ratio"] = traced_ns / plain_ns;
  (*layers)["net.rpcs_per_gain"] =
      rpcs_plain / static_cast<double>(chunks * per);

  const double rpc0 = counter("net.rpc.count");
  const Result<SnapshotSeedSelection> sel = remote.TopKSeeds(kTopK);
  outcome.Op(sel.ok() && SameSelection(*sel, e.topk),
             "traced-run remote topk differs from reference");
  (*layers)["net.rpcs_per_topk"] = counter("net.rpc.count") - rpc0;
  outcome.Op(remote.ResetSession().ok(), "reset after topk failed");

  // Span breakdown + envelope check (the serve_shards --bench_net rule:
  // every remote span inside its enclosing net.rpc, folds summing to no
  // more than it). Broken traces are counted, not fatal.
  constexpr std::uint64_t kSlackNs = 1000;
  // server.send is a zero-length marker (the span block rides in that
  // same response), so the send cost is read inside net.transit_us.
  std::vector<double> rpc_us, request_us, decode_us, fold_us, transit_us;
  std::size_t unstitched = 0;
  for (const influmax::TraceRecord& trace : collector.Traces()) {
    std::map<std::uint64_t, const influmax::TraceSpan*> by_id;
    for (const influmax::TraceSpan& s : trace.spans) by_id[s.span_id] = &s;
    const auto enclosing_rpc =
        [&by_id](const influmax::TraceSpan& s) -> const influmax::TraceSpan* {
      const influmax::TraceSpan* cur = &s;
      for (int depth = 0; depth < 8 && cur != nullptr; ++depth) {
        if (cur->rec.name_id == influmax::kSpanNetRpc) return cur;
        const auto it = by_id.find(cur->parent_span_id);
        cur = it == by_id.end() ? nullptr : it->second;
      }
      return nullptr;
    };
    bool has_rpc = false;
    bool has_remote = false;
    bool well_formed = true;
    std::map<std::uint64_t, std::uint64_t> fold_sum;
    std::map<std::uint64_t, std::uint64_t> request_of;
    for (const influmax::TraceSpan& s : trace.spans) {
      const double us = static_cast<double>(s.rec.duration_ns) * 1e-3;
      if (s.rec.name_id == influmax::kSpanNetRpc) {
        has_rpc = true;
        rpc_us.push_back(us);
      }
      if ((s.rec.flags & influmax::kSpanFlagRemote) == 0) continue;
      has_remote = true;
      const influmax::TraceSpan* rpc = enclosing_rpc(s);
      if (rpc == nullptr) {
        well_formed = false;
        continue;
      }
      if (s.rec.start_ns + kSlackNs < rpc->rec.start_ns ||
          s.rec.start_ns + s.rec.duration_ns >
              rpc->rec.start_ns + rpc->rec.duration_ns + kSlackNs) {
        well_formed = false;
      }
      switch (s.rec.name_id) {
        case influmax::kSpanServerRequest:
          request_us.push_back(us);
          request_of[rpc->span_id] = s.rec.duration_ns;
          break;
        case influmax::kSpanServerDecode:
          decode_us.push_back(us);
          break;
        case influmax::kSpanServerFold:
          fold_us.push_back(us);
          fold_sum[rpc->span_id] += s.rec.duration_ns;
          break;
        default:
          break;
      }
    }
    for (const auto& [rpc_id, sum] : fold_sum) {
      if (sum > by_id[rpc_id]->rec.duration_ns + kSlackNs) well_formed = false;
    }
    for (const auto& [rpc_id, request_ns] : request_of) {
      const std::uint64_t rpc_ns = by_id[rpc_id]->rec.duration_ns;
      transit_us.push_back(
          static_cast<double>(rpc_ns > request_ns ? rpc_ns - request_ns : 0) *
          1e-3);
    }
    if (!has_rpc || !has_remote || !well_formed) ++unstitched;
  }
  (*layers)["obs.traces_unstitched"] = static_cast<double>(unstitched);
  (*layers)["net.rpc_us"] = Median(rpc_us);
  (*layers)["net.server.request_us"] = Median(request_us);
  (*layers)["net.server.decode_us"] = Median(decode_us);
  (*layers)["net.server.fold_us"] = Median(fold_us);
  (*layers)["net.transit_us"] = Median(transit_us);
  std::printf("traced %zu gains: %zu traces, %zu unstitched, rpc p50 %.2f us\n",
              chunks * per, collector.Traces().size(), unstitched,
              Median(rpc_us));

  // Chrome trace: the collector's stitched RPC spans + the phase spans.
  std::string json = collector.TraceEventJson();
  const std::string extra = phases.ChromeEvents();
  const std::size_t close = json.rfind(']');
  if (!extra.empty() && close != std::string::npos) {
    const bool empty = json.find('{', json.find('[')) > close;
    json.insert(close, (empty ? "" : ",\n") + extra + "\n");
  }
  std::ofstream(trace_path) << json;
}

/// In process, tracing is the router's span ring plus one bench span per
/// gain: the gain stream timed with and without it, interleaved, median
/// of 5 pairs.
void ProbeLocalTraceOverhead(ShardRouter& router,
                             const std::vector<NodeId>& nodes,
                             std::map<std::string, double>* layers) {
  influmax::SpanRing ring(4096);
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<influmax::SpanRecord> spans;
  spans.reserve(nodes.size());
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t t = NowNs();
    for (NodeId x : nodes) sink += router.MarginalGain(x);
    plain.push_back(static_cast<double>(NowNs() - t));
    router.set_span_ring(&ring);
    spans.clear();
    t = NowNs();
    for (NodeId x : nodes) {
      const std::uint64_t s0 = influmax::MonotonicNowNs();
      sink += router.MarginalGain(x);
      spans.push_back({influmax::kSpanQueryGain, 0, 0, s0,
                       influmax::MonotonicNowNs() - s0, x});
    }
    traced.push_back(static_cast<double>(NowNs() - t));
    router.set_span_ring(nullptr);
  }
  (*layers)["obs.trace_overhead_ratio"] = Median(traced) / Median(plain);
  if (sink < 0) std::printf("negative gain sum\n");  // keeps the passes live
}

/// Public wire codecs for one fold round trip, timed in isolation, and
/// the bytes a gain puts on the wire (untraced frames).
void ProbeWire(double rpcs_per_gain, std::map<std::string, double>* layers) {
  constexpr int kIters = 200000;
  double sink = 0.0;
  std::size_t request_bytes = 0;
  std::size_t response_bytes = 0;
  std::vector<double> per_iter;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t = NowNs();
    for (int i = 0; i < kIters; ++i) {
      influmax::BufferWriter req;
      influmax::EncodeFold({static_cast<NodeId>(i), sink}, &req);
      influmax::BufferReader req_in(req.buffer());
      const auto fold = influmax::DecodeFold(&req_in);
      influmax::BufferWriter resp;
      influmax::EncodeFoldOk({fold.ok() ? fold->acc + 1.0 : 0.0}, &resp);
      influmax::BufferReader resp_in(resp.buffer());
      const auto ok = influmax::DecodeFoldOk(&resp_in);
      sink = ok.ok() ? ok->acc * 0.5 : 0.0;
      request_bytes = req.buffer().size();
      response_bytes = resp.buffer().size();
    }
    per_iter.push_back(static_cast<double>(NowNs() - t) / kIters);
  }
  (*layers)["net.wire.fold_codec_ns"] = Median(per_iter);
  (*layers)["net.wire.bytes_per_gain"] =
      rpcs_per_gain * static_cast<double>(2 * influmax::kWireHeaderBytes +
                                          request_bytes + response_bytes);
  if (std::isnan(sink)) std::printf("nan\n");  // keeps the loop live
}

// ----------------------------------------------------------- output

std::string HostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), cpu.c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  return buf;
}

std::string MetricsJson(const MetricList& list, bool with_samples) {
  std::string out = "{";
  char buf[512];
  for (std::size_t i = 0; i < list.metrics().size(); ++i) {
    const Metric& m = list.metrics()[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    if (with_samples) {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %zu}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str(),
                    m.samples);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    out += buf;
  }
  return out + "}";
}

/// Per-layer metric names and units, in report order. Layers a workload
/// does not exercise (no RPCs in process, no build queries remotely)
/// report 0.
std::vector<std::pair<std::string, std::string>> LayerCatalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"actionlog.dag_s", "s"},
      {"actionlog.dag_edges", "count"},
      {"core.scan_s", "s"},
      {"core.credit_entries", "count"},
      {"core.celf.gain_evals", "count"},
      {"core.celf.useful_ratio", "ratio"},
      {"shard.write_s", "s"},
      {"shard.open_s", "s"},
      {"serve.snapshot_bytes", "bytes"},
      {"shard.ingest.replayed_tuples", "count"},
      {"shard.ingest.new_actions", "count"},
      {"shard.router.overhead_us", "us"},
      {"serve.engine.terms_us", "us"},
      {"serve.kernel.entries_per_gain", "count"},
      {"serve.kernel.ns_per_entry", "ns"},
      {"serve.commit_us", "us"},
      {"serve.reset_us", "us"},
      {"serve.overlay_bytes_per_commit", "bytes"},
      {"serve.topk.commit_share", "ratio"},
      {"net.rpc_us", "us"},
      {"net.rpcs_per_gain", "count"},
      {"net.rpcs_per_topk", "count"},
      {"net.server.request_us", "us"},
      {"net.server.decode_us", "us"},
      {"net.server.fold_us", "us"},
      {"net.transit_us", "us"},
      {"net.wire.fold_codec_ns", "ns"},
      {"net.wire.bytes_per_gain", "bytes"},
      {"net.rpc.errors", "count"},
      {"net.rpc.retries", "count"},
      {"net.failovers", "count"},
      {"net.reconnects", "count"},
      {"net.server.rejected", "count"},
      {"loadgen.max_rate_ops_s", "ops/s"},
  };
  for (std::size_t k = 0; k < kRungs; ++k) {
    const std::string p = "loadgen.r" + std::to_string(k) + ".";
    c.push_back({p + "latency_p50_us", "us"});
    c.push_back({p + "latency_p99_us", "us"});
    c.push_back({p + "queue_wait_p50_us", "us"});
    c.push_back({p + "queue_wait_p99_us", "us"});
    c.push_back({p + "late_p99_us", "us"});
  }
  c.push_back({"obs.trace_overhead_ratio", "ratio"});
  c.push_back({"obs.traces_unstitched", "count"});
  return c;
}

// ------------------------------------------------------------ workload

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
  std::string out_dir;
};

int RunWorkload(const WorkloadSpec& spec, const Options& opt) {
  const std::uint64_t run_start = NowNs();
  const std::uint64_t budget_ns =
      static_cast<std::uint64_t>(opt.seconds * 1e9);
  Outcome outcome;
  PhaseLog phases(opt.trace);
  std::map<std::string, double> layers;
  const std::string host = HostFingerprint();
  std::printf("workload %s seed %" PRIu64 " trace %d host %s\n", spec.name,
              opt.seed, opt.trace ? 1 : 0, host.c_str());

  const TempDir tmp(fs::path(opt.work_dir) /
                    (std::string(spec.name) + "-" + std::to_string(::getpid())));
  const fs::path gen_dir = tmp.path() / "generation";
  const std::string prefix =
      (fs::path(opt.out_dir) /
       (std::string(spec.name) + "-seed" + std::to_string(opt.seed)))
          .string();

  // Inputs: the seeded dataset, then the model inputs.
  auto data = MakeDataset(opt.seed);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset: %s\n", data.status().ToString().c_str());
    return 2;
  }
  ModelInputs inputs;
  {
    auto prepared = PrepareModelInputs(*data);
    if (!prepared.ok()) {
      std::fprintf(stderr, "inputs: %s\n", prepared.status().ToString().c_str());
      return 2;
    }
    inputs = std::move(prepared).value();
  }
  std::printf("dataset: %u users, %zu tuples over %u actions (%zu training)\n",
              data->graph.num_nodes(), data->log.num_tuples(),
              data->log.num_actions(), inputs.train.num_tuples());

  if (opt.trace) {
    std::vector<double> dag_s;
    std::uint64_t edges = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const std::uint64_t t = NowNs();
      std::uint64_t e = 0;
      for (ActionId a = 0; a < inputs.train.num_actions(); ++a) {
        e += influmax::BuildPropagationDag(data->graph,
                                           inputs.train.ActionTrace(a))
                 .num_edges();
      }
      dag_s.push_back(SecondsSince(t));
      edges = e;
    }
    layers["actionlog.dag_s"] = Median(dag_s);
    layers["actionlog.dag_edges"] = static_cast<double>(edges);
  }

  // Sample buffers are reserved for the most rounds a run may take, so
  // no reallocation lands in the measured peak RSS.
  constexpr std::size_t kMaxRounds = 48;
  ServeSamples samples;
  samples.gain_us.reserve(kMaxRounds * spec.gains);
  samples.whatif_ms.reserve(kMaxRounds * spec.whatifs);
  samples.commit_us.reserve(kMaxRounds * spec.whatifs * kWhatifCommits);
  samples.reset_us.reserve(kMaxRounds * spec.whatifs);
  samples.topk_ms.reserve(kMaxRounds * spec.topks);
  std::size_t rounds = 0;
  std::vector<RoundFigures> round_figures;
  // One serving round: the same op streams every round.
  const auto alu_probe = [] {
    std::uint64_t h = 88172645463325252ull;
    const std::uint64_t t = NowNs();
    for (int i = 0; i < 4000000; ++i) {
      h ^= h << 13;
      h ^= h >> 7;
      h ^= h << 17;
      h = h * 31 + static_cast<std::uint64_t>(i);
    }
    const double ms = static_cast<double>(NowNs() - t) * 1e-6;
    return h == 42 ? 0.0 : ms;
  };
  const auto run_round = [&](Backend& b, const OpStreams& o,
                             const Expected& e) {
    const double a0 = alu_probe();
    const RoundMark mark = MarkRound(samples);
    std::uint64_t t = phases.Begin();
    RunGainPhase(b, o, e, outcome, &samples);
    phases.End("serve.gain_phase", t);
    t = phases.Begin();
    RunWhatifPhase(b, o, e, outcome, &samples);
    phases.End("serve.whatif_phase", t);
    t = phases.Begin();
    RunTopkPhase(b, spec.topks, e, outcome, &samples);
    phases.End("serve.topk_phase", t);
    const RoundFigures f = FiguresSince(samples, mark);
    const double a1 = alu_probe();
    std::printf("round %zu: gain p50 %.4fus p99 %.3fus rate %.0f/s whatif "
                "p50 %.4fms topk p50 %.3fms alu %.3f %.3f\n",
                rounds, f.gain_p50_us, f.gain_p99_us, f.rate_ops_s,
                f.whatif_p50_ms, f.topk_p50_ms, a0, a1);
    round_figures.push_back(f);
    ++rounds;
  };
  // The first build cycle writes the generation that is served.
  std::vector<CycleResult> cycles;
  if (Status st = RunCycle(*data, inputs, gen_dir, phases, outcome, &cycles);
      !st.ok()) {
    std::fprintf(stderr, "build cycles: %s\n", st.ToString().c_str());
    return 2;
  }
  const auto cycle_median = [&cycles](double CycleResult::*field) {
    std::vector<double> v;
    for (const CycleResult& c : cycles) v.push_back(c.*field);
    return Median(v);
  };

  // The serving part: set-up of the server side, then the phases on the
  // ingested generation.
  std::unique_ptr<GenerationManager> manager;
  std::unique_ptr<GenerationManager::Session> session;
  std::unique_ptr<ServerFleet> fleet;
  std::unique_ptr<RemoteShardRouter> remote;
  std::vector<double> setup_s;
  const auto open_local = [&]() -> Status {
    auto opened = GenerationManager::Open(gen_dir.string());
    if (!opened.ok()) return opened.status();
    manager = std::move(opened).value();
    session = std::make_unique<GenerationManager::Session>(*manager);
    return Status::OK();
  };
  for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
    // The previous repetition is torn down outside the timed region.
    session.reset();
    manager.reset();
    remote.reset();
    fleet.reset();
    const std::uint64_t t = NowNs();
    const std::uint64_t span = phases.Begin();
    Status st;
    if (!spec.remote) {
      st = open_local();
    } else {
      auto started = ServerFleet::Start(opt.server_bin, gen_dir.string(),
                                        kShards);
      if (started.ok()) {
        fleet = std::move(started).value();
        influmax::RemoteRouterOptions ro;
        auto endpoints = influmax::ParseEndpointSpec(fleet->EndpointSpec());
        st = endpoints.status();
        if (st.ok()) {
          ro.replica_sets = std::move(endpoints).value();
          ro.rpc_deadline_ms = 10000;
          auto connected = RemoteShardRouter::Connect(ro);
          st = connected.status();
          if (st.ok()) remote = std::move(connected).value();
        }
      } else {
        st = started.status();
      }
    }
    if (!st.ok()) {
      std::fprintf(stderr, "set-up: %s\n", st.ToString().c_str());
      return 2;
    }
    phases.End(spec.remote ? "setup.fleet" : "setup.open", span);
    setup_s.push_back(SecondsSince(t));
  }
  std::printf("set-up:");
  for (double s : setup_s) std::printf(" %.4fs", s);
  std::printf("\n");
  // The in-process reference session (and, in process, the measured one).
  if (spec.remote || !session) {
    if (Status st = open_local(); !st.ok()) {
      std::fprintf(stderr, "open: %s\n", st.ToString().c_str());
      return 2;
    }
  }
  GenerationManager::Session reference(*manager);
  // The open-loop ladder feeds only per-layer metrics, so only traced
  // runs pay for it.
  const bool with_ladder = spec.remote && opt.trace;
  {
    std::vector<std::uint32_t> au = session->shards().manifest.au;
    std::sort(au.begin(), au.end(), std::greater<>());
    const auto active = static_cast<std::size_t>(
        std::count_if(au.begin(), au.end(), [](std::uint32_t a) { return a; }));
    const std::uint64_t total = std::accumulate(au.begin(), au.end(), 0ULL);
    const std::uint64_t head = std::accumulate(
        au.begin(), au.begin() + static_cast<long>((active + 99) / 100), 0ULL);
    std::printf("gain targets: %zu active users, the top 1%% perform %.1f%% "
                "of %" PRIu64 " actions\n",
                active, 100.0 * static_cast<double>(head) /
                            static_cast<double>(total), total);
  }
  const OpStreams ops =
      MakeOpStreams(spec, opt.seed, session->shards().manifest.au, with_ladder);
  const Expected expected = ComputeExpected(reference.router(), ops);

  Backend backend = spec.remote ? RemoteBackend(*remote)
                                : LocalBackend(session->router());
  const auto counter_now = [](const char* name) {
    const auto snap = influmax::MetricsRegistry::Global().Scrape();
    const auto* c = snap.FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value);
  };
  const char* kNetCounters[] = {"net.rpc.errors", "net.rpc.retries",
                                "net.failovers", "net.reconnects"};
  std::map<std::string, double> counter_base;
  for (const char* name : kNetCounters) counter_base[name] = counter_now(name);

  std::vector<RungResult> rungs;
  if (with_ladder) {
    rungs = RunLadder(backend, ops, expected, opt.seed, outcome, phases);
  }
  // The rounds, until kServeShare of the budget (counted from the start
  // of the run) is spent; at least one round. A build cycle runs after
  // every kRoundsPerCycle rounds; its child writes beside the served
  // generation. Nothing else runs during a cycle (the shard_servers sit
  // idle), and the client process has one thread, so the fork is safe.
  const std::uint64_t serve_start = NowNs();
  const auto serving_left = [&] {
    return rounds < kMaxRounds &&
           NowNs() - run_start <
               static_cast<std::uint64_t>(kServeShare * budget_ns);
  };
  while (rounds == 0 || serving_left()) {
    run_round(backend, ops, expected);
    if (rounds % kRoundsPerCycle == 0 && serving_left()) {
      if (Status st = RunCycle(*data, inputs, tmp.path() / "cycle", phases,
                               outcome, &cycles);
          !st.ok()) {
        std::fprintf(stderr, "build cycle: %s\n", st.ToString().c_str());
        return 2;
      }
    }
  }
  std::printf("serving: %zu rounds and %zu build cycles in %.2fs\n", rounds,
              cycles.size() - 1, SecondsSince(serve_start));

  for (std::size_t i = 1; i < cycles.size(); ++i) {
    outcome.Op(cycles[i].credit_entries == cycles[0].credit_entries &&
                   cycles[i].gain_evals == cycles[0].gain_evals &&
                   cycles[i].snapshot_bytes == cycles[0].snapshot_bytes &&
                   cycles[i].replayed_tuples == cycles[0].replayed_tuples,
               "build cycle work counts differ between repetitions");
  }
  const CycleResult& c0 = cycles[0];
  layers["core.scan_s"] = cycle_median(&CycleResult::scan_s);
  layers["core.credit_entries"] = static_cast<double>(c0.credit_entries);
  layers["core.celf.gain_evals"] = static_cast<double>(c0.gain_evals);
  layers["core.celf.useful_ratio"] =
      c0.gain_evals == 0 ? 0.0 : kTopK / static_cast<double>(c0.gain_evals);
  layers["shard.write_s"] = cycle_median(&CycleResult::write_s);
  layers["shard.open_s"] = cycle_median(&CycleResult::open_s);
  layers["serve.snapshot_bytes"] = static_cast<double>(c0.snapshot_bytes);
  layers["shard.ingest.replayed_tuples"] =
      static_cast<double>(c0.replayed_tuples);
  layers["shard.ingest.new_actions"] = static_cast<double>(c0.new_actions);

  if (opt.trace) {
    for (const char* name : kNetCounters) {
      layers[name] = counter_now(name) - counter_base[name];
    }
    if (fleet) {
      const std::int64_t rejected = fleet->RejectedTotal();
      outcome.Op(rejected >= 0, "shard_server did not answer stats");
      layers["net.server.rejected"] = static_cast<double>(std::max<std::int64_t>(0, rejected));
    }
    if (!rungs.empty()) layers["loadgen.max_rate_ops_s"] = MaxRate(rungs);
    for (std::size_t k = 0; k < rungs.size(); ++k) {
      const std::string p = "loadgen.r" + std::to_string(k) + ".";
      layers[p + "latency_p50_us"] = Quantile(rungs[k].latency_us, 0.5);
      layers[p + "latency_p99_us"] = WindowedQuantile(rungs[k].latency_us, 0.99);
      layers[p + "queue_wait_p50_us"] = Quantile(rungs[k].queue_wait_us, 0.5);
      layers[p + "queue_wait_p99_us"] =
          WindowedQuantile(rungs[k].queue_wait_us, 0.99);
      layers[p + "late_p99_us"] = WindowedQuantile(rungs[k].late_us, 0.99);
    }
    layers["serve.commit_us"] = Median(samples.commit_us);
    layers["serve.reset_us"] = Median(samples.reset_us);
    ProbeGainLayers(reference.router(), reference.shards(), ops.gains, &layers);
    ProbeSessionLayers(*manager, ops, expected, &layers);
    if (spec.remote) {
      ProbeRemoteLayers(*remote, ops, expected, outcome,
                        prefix + ".trace.json", phases, &layers);
      ProbeWire(layers["net.rpcs_per_gain"], &layers);
    } else {
      ProbeLocalTraceOverhead(session->router(), ops.gains, &layers);
      std::ofstream(prefix + ".trace.json")
          << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
          << phases.ChromeEvents() << "\n]}\n";
    }
  }

  // Peak RSS of the serving side: the serving process on serve_local, the
  // largest shard_server on serve_remote. The remote client is left out:
  // it also holds the in-process reference session, so it would measure
  // the benchmark.
  const std::uint64_t peak = fleet ? fleet->PeakRssBytes() : PeakRssOf(0);
  remote.reset();
  if (fleet) fleet->Stop();

  const double ok_ratio =
      outcome.attempted() == 0
          ? 0.0
          : static_cast<double>(outcome.attempted() - outcome.failed()) /
                static_cast<double>(outcome.attempted());
  MetricList list;
  if (!opt.trace) {
    // Each timing is taken per build cycle or per serving round, and the
    // run reports their faster quartile (FastQuartile in stats.h). The
    // sample count is the number of cycles or rounds.
    const auto cycle_q = [&cycles](double CycleResult::*field) {
      std::vector<double> v;
      for (const CycleResult& c : cycles) v.push_back(c.*field);
      return FastQuartile(v);
    };
    const auto round_q = [&round_figures](double RoundFigures::*field,
                                          bool higher_is_better = false) {
      std::vector<double> v;
      for (const RoundFigures& f : round_figures) v.push_back(f.*field);
      return FastQuartile(v, higher_is_better);
    };
    const std::size_t n_cycles = cycles.size();
    const std::size_t n_rounds = round_figures.size();
    list.Add("setup_s", Median(setup_s), "s", setup_s.size());
    list.Add("peak_rss_mb", static_cast<double>(peak) / 1e6, "MB", 1);
    list.Add("ops_ok_ratio", ok_ratio, "ratio", outcome.attempted());
    list.Add("build_s", cycle_q(&CycleResult::build_s), "s", n_cycles);
    list.Add("select_s", cycle_q(&CycleResult::select_s), "s", n_cycles);
    list.Add("ingest_s", cycle_q(&CycleResult::ingest_s), "s", n_cycles);
    list.Add("gain_p50_us", round_q(&RoundFigures::gain_p50_us), "us",
             n_rounds);
    list.Add("gain_p99_us", round_q(&RoundFigures::gain_p99_us), "us",
             n_rounds);
    list.Add("whatif_p50_ms", round_q(&RoundFigures::whatif_p50_ms), "ms",
             n_rounds);
    list.Add("topk_p50_ms", round_q(&RoundFigures::topk_p50_ms), "ms",
             n_rounds);
    // The closed-loop capacity of the one client thread. The open-loop
    // ladder's verdict (loadgen.max_rate_ops_s) flips between rungs
    // whenever the shared host is contended, so it is a per-layer metric.
    list.Add("max_rate_ops_s", round_q(&RoundFigures::rate_ops_s, true),
             "ops/s", n_rounds);
  } else {
    for (const auto& [name, unit] : LayerCatalog()) {
      const auto it = layers.find(name);
      list.Add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
    std::ofstream(prefix + ".layers.json")
        << "{\"workload\": \"" << spec.name << "\", \"seed\": " << opt.seed
        << ", \"host\": " << host << ",\n \"metrics\": "
        << MetricsJson(list, true) << "}\n";
  }
  for (const Metric& m : list.metrics()) {
    std::printf("  %-34s %14.6g %-6s (%zu samples)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
  std::printf("run took %.2fs\n", SecondsSince(run_start));
  const bool correct = outcome.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted(),
              outcome.failed(), MetricsJson(list, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opt;
  int seed = 1;
  double seconds = 10;
  int trace = 0;
  influmax::FlagParser flags;
  flags.AddString("workload", &opt.workload,
                  "serve_local | serve_remote");
  flags.AddInt("seed", &seed, "seed of the data and every op stream");
  flags.AddDouble("seconds", &seconds, "measurement budget");
  flags.AddInt("trace", &trace, "1 = traced per-layer run");
  flags.AddString("server_bin", &opt.server_bin, "shard_server binary");
  flags.AddString("work_dir", &opt.work_dir, "scratch root (removed)");
  flags.AddString("out_dir", &opt.out_dir, "traced-run outputs");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  opt.seed = static_cast<std::uint64_t>(seed);
  opt.seconds = seconds;
  opt.trace = trace != 0;
  if (opt.work_dir.empty() || opt.out_dir.empty() || seconds <= 0) {
    std::fprintf(stderr, "--work_dir, --out_dir and --seconds > 0 needed\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (opt.workload != spec.name) continue;
    if (spec.remote && opt.server_bin.empty()) {
      std::fprintf(stderr, "--server_bin is required for %s\n", spec.name);
      return 2;
    }
    std::error_code ec;
    fs::create_directories(opt.out_dir, ec);
    return RunWorkload(spec, opt);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
