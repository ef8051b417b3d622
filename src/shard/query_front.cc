#include "shard/query_front.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/span_names.h"

namespace influmax {

namespace {

// Front telemetry (docs/observability.md), the same names for both
// transports: every real commit and every top-k query, exactly.
struct FrontMetrics {
  Counter* commits;
  Timer* commit_latency;
  Counter* topk_queries;
  Timer* topk_latency;
};

const FrontMetrics& GetFrontMetrics() {
  static const FrontMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return FrontMetrics{
        reg.FindOrCreateCounter("shard.router.commits"),
        reg.FindOrCreateTimer("shard.router.commit_latency"),
        reg.FindOrCreateCounter("shard.router.topk_queries"),
        reg.FindOrCreateTimer("shard.router.topk_latency"),
    };
  }();
  return metrics;
}

}  // namespace

QueryFront::QueryFront(ShardBackend* backend)
    : backend_(backend),
      unbound_(Status::Unavailable("query front: no generation bound")) {
  // Register the metric names up front so scrapes see them from the
  // first query.
  (void)GetFrontMetrics();
}

void QueryFront::Bind(std::span<const std::uint32_t> au,
                      std::span<const NodeId> frozen_seeds) {
  au_ = au;
  num_users_ = static_cast<NodeId>(au.size());
  unbound_ = Status::OK();
  poisoned_ = Status::OK();
  is_seed_.assign(num_users_, 0);
  for (NodeId x : frozen_seeds) {
    INFLUMAX_CHECK(x < num_users_);
    is_seed_[x] = 1;
  }
  committed_.clear();
}

void QueryFront::Unbind(Status status) {
  INFLUMAX_CHECK(!status.ok());
  unbound_ = std::move(status);
  au_ = {};
  num_users_ = 0;
  is_seed_.clear();
  committed_.clear();
  poisoned_ = Status::OK();
}

Status QueryFront::Usable() const {
  if (!unbound_.ok()) return unbound_;
  if (poisoned_.ok()) return Status::OK();
  return Status::FailedPrecondition(
      "session poisoned by a failed commit (" + poisoned_.message() +
      "); ResetSession() or Refresh() to recover");
}

Status QueryFront::GainsOf(std::span<const NodeId> nodes, double* gains) {
  candidates_.clear();
  for (NodeId x : nodes) {
    if (IsCandidate(x)) candidates_.push_back(x);
  }
  if (candidates_.size() == nodes.size()) return backend_->Gains(nodes, gains);
  candidate_gains_.resize(candidates_.size());
  if (!candidates_.empty()) {
    INFLUMAX_RETURN_IF_ERROR(
        backend_->Gains(candidates_, candidate_gains_.data()));
  }
  for (std::size_t i = 0, j = 0; i < nodes.size(); ++i) {
    gains[i] = IsCandidate(nodes[i]) ? candidate_gains_[j++] : 0.0;
  }
  return Status::OK();
}

Result<double> QueryFront::MarginalGain(NodeId x) {
  INFLUMAX_RETURN_IF_ERROR(Usable());
  if (!IsCandidate(x)) return 0.0;
  double gain = 0.0;
  INFLUMAX_RETURN_IF_ERROR(
      backend_->Gains(std::span<const NodeId>(&x, 1), &gain));
  return gain;
}

Status QueryFront::CommitSeed(NodeId x) {
  INFLUMAX_RETURN_IF_ERROR(Usable());
  if (x >= num_users_ || is_seed_[x]) return Status::OK();
  const FrontMetrics& m = GetFrontMetrics();
  const bool obs = backend_->obs_enabled();
  if (obs) m.commits->Increment();
  ObsSpan span(ring_, kSpanRouterCommit, x, obs ? m.commit_latency : nullptr);
  if (Status st = backend_->Commit(x); !st.ok()) {
    // Some shards may have applied the commit, some not: their partials
    // would mix seed sets, so the session refuses every query until a
    // reset rebuilds a consistent one. Degradation is a refusal, never a
    // partial answer.
    poisoned_ = st;
    return st;
  }
  is_seed_[x] = 1;
  committed_.push_back(x);
  return Status::OK();
}

Status QueryFront::ResetSession() {
  if (!unbound_.ok()) return unbound_;
  const Status st = backend_->Reset();
  for (NodeId x : committed_) is_seed_[x] = 0;
  committed_.clear();
  poisoned_ = Status::OK();
  return st;
}

Result<double> QueryFront::SpreadOf(std::span<const NodeId> seeds) {
  // Theorem 3 telescopes: sigma_cd(S) is the sum of the marginal gains
  // of committing S one seed at a time (in the given order).
  INFLUMAX_RETURN_IF_ERROR(ResetSession());
  double total = 0.0;
  for (NodeId seed : seeds) {
    const Result<double> gain = MarginalGain(seed);
    if (!gain.ok()) return gain.status();
    total += *gain;
    INFLUMAX_RETURN_IF_ERROR(CommitSeed(seed));
  }
  return total;
}

Result<SnapshotSeedSelection> QueryFront::TopKSeeds(NodeId k,
                                                    double spread_budget) {
  if (!unbound_.ok()) return unbound_;
  const FrontMetrics& m = GetFrontMetrics();
  const bool obs = backend_->obs_enabled();
  if (obs) m.topk_queries->Increment();
  ObsSpan span(ring_, kSpanRouterTopk, k, obs ? m.topk_latency : nullptr);
  INFLUMAX_RETURN_IF_ERROR(ResetSession());
  // The CELF driver (RunCelfTopK) with the backend's summed gains and
  // commits plugged in, so seeds, gains and evaluation counts are
  // bit-identical for any backend and worker count. A backend error
  // cannot leave the driver's callbacks, so it sticks: later gains read
  // 0.0, which ends the greedy at its gain <= 0 break, and the error —
  // not a partial selection — is returned.
  SnapshotSeedSelection selection;
  Status error;
  RunCelfTopK(
      k, spread_budget, backend_->gain_workers(), num_users_,
      [this](NodeId x) { return au_[x] != 0; },
      [&](std::span<const NodeId> nodes, double* gains) {
        if (error.ok()) error = GainsOf(nodes, gains);
        if (!error.ok()) std::fill_n(gains, nodes.size(), 0.0);
      },
      [&](NodeId x) {
        if (error.ok()) error = CommitSeed(x);
      },
      &celf_, &selection);
  if (!error.ok()) return error;
  return selection;
}

std::uint64_t QueryFront::ApproxMemoryBytes() const {
  return is_seed_.capacity() + committed_.capacity() * sizeof(NodeId) +
         candidates_.capacity() * sizeof(NodeId) +
         candidate_gains_.capacity() * sizeof(double) +
         celf_.ApproxMemoryBytes();
}

}  // namespace influmax
