// CreditDistributionModel on the frozen layout: Build scans each action
// (Algorithm 2, core/cd_model.cc) and freezes it into the snapshot image
// right away; the image is served as a whole 1-shard generation by a
// ShardRouter, whose query front runs the greedy. Compiled into the
// shard library, beside the router and the writer it uses.
#include <algorithm>
#include <utility>
#include <vector>

#include "actionlog/propagation_dag.h"
#include "common/parallel.h"
#include "core/cd_model.h"
#include "serve/query_engine.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/shard_manifest.h"
#include "shard/shard_router.h"

namespace influmax {

struct CreditDistributionModel::Frozen {
  explicit Frozen(SnapshotData image)
      : data(std::move(image)),
        shards(InMemoryShardedSnapshot(CreditSnapshotView::InMemory(data))),
        router(shards) {
    router.set_obs_enabled(false);  // the model's greedy is not served
  }

  const SnapshotQueryEngine& engine() const { return router.shard_engine(0); }

  SnapshotData data;
  ShardedSnapshot shards;  // the image as a whole 1-shard generation
  ShardRouter router;
};

CreditDistributionModel::CreditDistributionModel(const ActionLog& log)
    : log_(&log) {}
CreditDistributionModel::CreditDistributionModel(
    CreditDistributionModel&&) noexcept = default;
CreditDistributionModel& CreditDistributionModel::operator=(
    CreditDistributionModel&&) noexcept = default;
CreditDistributionModel::~CreditDistributionModel() = default;

namespace {

/// A contiguous slice of one worker's entry pools: which worker produced
/// it, where it starts, and how long it is. The build records one per
/// action as it freezes the action, so the gather can lay the slices out
/// in action order.
struct ArenaSlice {
  std::uint32_t worker = 0;
  std::uint64_t offset = 0;
  std::uint32_t count = 0;
};

/// Lays the workers' entry pools out in action order: each action's
/// slice is copied whole, and its slots' begins and its backward
/// records' entry indices are moved by the distance the slice moved.
void GatherEntries(const ActionLog& log, std::span<const ArenaSlice> slices,
                   std::vector<SnapshotData>* pools, SnapshotData* data) {
  std::uint64_t total = 0;
  for (const ArenaSlice& slice : slices) total += slice.count;
  data->fwd_node.reserve(total);
  data->fwd_credit.reserve(total);
  data->bwd_node.reserve(total);
  data->bwd_entry.reserve(total);
  for (ActionId a = 0; a < slices.size(); ++a) {
    const ArenaSlice& slice = slices[a];
    const SnapshotData& pool = (*pools)[slice.worker];
    const std::uint64_t base = data->fwd_node.size();
    data->action_entry_begin[a] = base;
    // Unsigned wrap-around: adding `shift` moves an index by base - offset
    // whichever is larger.
    const std::uint64_t shift = base - slice.offset;
    const auto append = [&](auto* dst, const auto& src) {
      dst->insert(dst->end(), src.begin() + slice.offset,
                  src.begin() + slice.offset + slice.count);
    };
    append(&data->fwd_node, pool.fwd_node);
    append(&data->fwd_credit, pool.fwd_credit);
    append(&data->bwd_node, pool.bwd_node);
    for (std::uint64_t j = slice.offset; j < slice.offset + slice.count; ++j) {
      data->bwd_entry.push_back(pool.bwd_entry[j] + shift);
    }
    for (const ActionTuple& t : log.ActionTrace(a)) {
      const std::uint64_t s = data->SlotOf(t.user, a);
      data->fwd_begin[s] += shift;
      data->bwd_begin[s] += shift;
    }
  }
  data->action_entry_begin[slices.size()] = data->fwd_node.size();
  pools->clear();
}

}  // namespace

Result<CreditDistributionModel> CreditDistributionModel::Build(
    const Graph& graph, const ActionLog& log,
    const DirectCreditModel& credit_model, const CdConfig& config) {
  if (log.num_users() != graph.num_nodes()) {
    return Status::InvalidArgument(
        "CD scan: action log user space does not match graph");
  }
  if (Status status = config.Validate(); !status.ok()) return status;
  const double lambda = config.truncation_threshold;
  const ActionId num_actions = log.num_actions();

  SnapshotData data;
  InitSnapshotSlots(log, &data);
  data.truncation_threshold = lambda;
  data.graph_fingerprint = FingerprintGraph(graph);

  // Algorithm 2: one pass over the log, processing each action's tuples
  // chronologically. Actions touch only their own credits, so the pass
  // is parallel across actions with results independent of the thread
  // count. Each worker scans an action into a hash table, freezes it
  // while the table is still hot, and drops the table, so only one
  // table per worker is ever live. There are never more workers than
  // actions. With one the actions run inline in ascending order and
  // freeze straight into the image; with more, each worker freezes into
  // its own entry pools and the pools are gathered in action order.
  const std::size_t workers =
      std::min<std::size_t>(EffectiveThreadCount(config.scan_threads),
                            std::max<ActionId>(num_actions, 1));
  std::vector<SnapshotData> pools(workers > 1 ? workers : 0);
  std::vector<ArenaSlice> slices(num_actions);
  std::vector<Status> freeze_status(workers);
  {
    std::vector<std::vector<CreditEntry>> creditors(workers);
    std::vector<FreezeScratch> freeze(workers);
    ParallelForDynamic(num_actions, workers, [&](std::size_t t,
                                                 std::size_t action) {
      const auto a = static_cast<ActionId>(action);
      const auto trace = log.ActionTrace(a);
      const PropagationDag dag = BuildPropagationDag(graph, trace);
      ActionCreditTable table;
      ScanDagRange(dag, credit_model, lambda, /*begin_pos=*/0, &table,
                   &creditors[t]);
      data.action_size[a] = static_cast<std::uint32_t>(trace.size());
      data.action_trace_hash[a] = HashActionTrace(trace);
      SnapshotData* entries = workers > 1 ? &pools[t] : &data;
      const std::uint64_t offset = entries->fwd_node.size();
      Status status = FreezeAction(table, a, trace, &freeze[t], &data, entries);
      if (!status.ok() && freeze_status[t].ok()) {
        freeze_status[t] = std::move(status);
      }
      slices[a] = {static_cast<std::uint32_t>(t), offset,
                   static_cast<std::uint32_t>(entries->fwd_node.size() -
                                              offset)};
    });
  }
  for (Status& status : freeze_status) {
    if (!status.ok()) return status;
  }
  if (workers > 1) {
    GatherEntries(log, slices, &pools, &data);
  } else {
    for (ActionId a = 0; a < num_actions; ++a) {
      data.action_entry_begin[a] = slices[a].offset;
    }
    data.action_entry_begin[num_actions] = data.fwd_node.size();
  }
  data.log_fingerprint =
      FingerprintTraceHashes(log.num_users(), data.action_trace_hash);

  INFLUMAX_RETURN_IF_ERROR(CheckGainHeadroom(data));
  CreditDistributionModel model(log);
  model.frozen_ = std::make_unique<Frozen>(std::move(data));
  return model;
}

double CreditDistributionModel::MarginalGain(NodeId x) const {
  return frozen_->router.MarginalGain(x);
}

void CreditDistributionModel::CommitSeed(NodeId x) {
  frozen_->router.CommitSeed(x);
}

std::span<const NodeId> CreditDistributionModel::committed_seeds() const {
  return frozen_->router.session_seeds();
}

const CreditSnapshotView& CreditDistributionModel::frozen() const {
  return frozen_->shards.views[0];
}

std::uint64_t CreditDistributionModel::credit_entries() const {
  const CreditSnapshotView& view = frozen();
  if (committed_seeds().empty()) return view.num_entries();
  std::uint64_t live = 0;
  for (std::uint64_t s = 0; s < view.num_slots(); ++s) {
    for (const double credit : frozen_->engine().SessionRow(s)) {
      live += credit > 0.0 ? 1 : 0;
    }
  }
  return live;
}

std::uint64_t CreditDistributionModel::ApproxMemoryBytes() const {
  return frozen().ApproxMemoryBytes() + frozen().pool_bytes() +
         frozen_->router.ApproxMemoryBytes();
}

SnapshotData CreditDistributionModel::ToSnapshotData() const {
  const Frozen& f = *frozen_;
  if (committed_seeds().empty()) return f.data;
  // The frozen image with the session applied: each row keeps its
  // entries whose credit is still positive, in their frozen order, and
  // each backward row its records whose entry survived, renumbered.
  const CreditSnapshotView& view = frozen();
  const SnapshotQueryEngine& engine = f.engine();
  SnapshotData out;
  out.num_users = f.data.num_users;
  out.num_actions = f.data.num_actions;
  out.graph_fingerprint = f.data.graph_fingerprint;
  out.log_fingerprint = f.data.log_fingerprint;
  out.truncation_threshold = f.data.truncation_threshold;
  out.au = f.data.au;
  out.user_offsets = f.data.user_offsets;
  out.slot_action = f.data.slot_action;
  out.action_size = f.data.action_size;
  out.action_trace_hash = f.data.action_trace_hash;
  const std::uint64_t num_slots = view.num_slots();
  out.slot_sc.resize(num_slots);
  for (std::uint64_t s = 0; s < num_slots; ++s) {
    out.slot_sc[s] = engine.SessionSc(s);
  }
  out.fwd_begin.assign(num_slots, 0);
  out.fwd_count.assign(num_slots, 0);
  out.bwd_begin.assign(num_slots, 0);
  out.bwd_count.assign(num_slots, 0);
  out.action_entry_begin.assign(out.num_actions + 1, 0);
  constexpr std::uint64_t kErased = ~0ULL;
  std::vector<std::uint64_t> renumbered(view.num_entries(), kErased);
  for (ActionId a = 0; a < out.num_actions; ++a) {
    out.action_entry_begin[a] = out.fwd_node.size();
    const auto trace = log_->ActionTrace(a);
    for (const ActionTuple& t : trace) {
      const std::uint64_t s = view.SlotOf(t.user, a);
      const std::uint64_t begin = view.fwd_begin()[s];
      const std::span<const double> row = engine.SessionRow(s);
      out.fwd_begin[s] = out.fwd_node.size();
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (!(row[i] > 0.0)) continue;
        renumbered[begin + i] = out.fwd_node.size();
        out.fwd_node.push_back(view.fwd_node()[begin + i]);
        out.fwd_credit.push_back(row[i]);
      }
      out.fwd_count[s] =
          static_cast<std::uint32_t>(out.fwd_node.size() - out.fwd_begin[s]);
    }
    for (const ActionTuple& t : trace) {
      const std::uint64_t s = view.SlotOf(t.user, a);
      const std::uint64_t begin = view.bwd_begin()[s];
      out.bwd_begin[s] = out.bwd_node.size();
      for (std::uint64_t j = begin; j < begin + view.bwd_count()[s]; ++j) {
        const std::uint64_t e = renumbered[view.bwd_entry()[j]];
        if (e == kErased) continue;
        out.bwd_node.push_back(view.bwd_node()[j]);
        out.bwd_entry.push_back(e);
      }
      out.bwd_count[s] =
          static_cast<std::uint32_t>(out.bwd_node.size() - out.bwd_begin[s]);
    }
  }
  out.action_entry_begin[out.num_actions] = out.fwd_node.size();
  out.seeds.assign(committed_seeds().begin(), committed_seeds().end());
  return out;
}

Status CreditDistributionModel::WriteSnapshot(const std::string& path) const {
  if (committed_seeds().empty()) return WriteSnapshotFile(frozen_->data, path);
  return WriteSnapshotFile(ToSnapshotData(), path);
}

Result<CreditDistributionModel::SeedSelection>
CreditDistributionModel::SelectSeeds(NodeId k) {
  // TopKSeeds resets the session first: refuse rather than drop commits.
  if (!committed_seeds().empty()) {
    return Status::FailedPrecondition(
        "SelectSeeds needs a session without commits (an earlier "
        "SelectSeeds or CommitSeed); Build() a fresh model to select again");
  }
  // Algorithm 3 through the query front that serves snapshots.
  return frozen_->router.TopKSeeds(k);
}

}  // namespace influmax
