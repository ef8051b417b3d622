#include "serve/query_engine.h"

#include <algorithm>

#include "actionlog/propagation_dag.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "core/credit_store.h"
#include "obs/metrics.h"
#include "serve/snapshot_writer.h"

namespace influmax {

namespace {

// Query-engine telemetry (docs/observability.md). The per-gain metrics
// are fed only by the sampled TimedMarginalGain path, so their counters
// move in units of kObsSampleEvery; the coarse operations record
// exactly. The overlay histograms are recorded at ResetSession — the
// moment the session's copy-on-write footprint is final; the copied
// entry count is added per commit.
struct EngineMetrics {
  Counter* gain_queries;
  Timer* gain_latency;
  Counter* commits;
  Timer* commit_latency;
  Counter* resets;
  Timer* reset_latency;
  Timer* overlay_slots;
  Timer* overlay_bytes;
  Counter* overlay_entries;
};

const EngineMetrics& GetEngineMetrics() {
  static const EngineMetrics metrics = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    return EngineMetrics{
        reg.FindOrCreateCounter("serve.gain.queries"),
        reg.FindOrCreateTimer("serve.gain.latency"),
        reg.FindOrCreateCounter("serve.commit.count"),
        reg.FindOrCreateTimer("serve.commit.latency"),
        reg.FindOrCreateCounter("serve.reset.count"),
        reg.FindOrCreateTimer("serve.reset.latency"),
        reg.FindOrCreateTimer("serve.overlay.slots"),
        reg.FindOrCreateTimer("serve.overlay.bytes"),
        reg.FindOrCreateCounter("serve.overlay.entries"),
    };
  }();
  return metrics;
}

// thread_local, not per-engine: MarginalGain is const and a router's
// batched gain pass fans it out over concurrent workers, so a member
// tick would race.
thread_local std::uint64_t t_gain_tick = 0;

inline bool GainTickFires() {
  return (++t_gain_tick & (kObsSampleEvery - 1)) == 0;
}

}  // namespace

SnapshotQueryEngine::SnapshotQueryEngine(const CreditSnapshotView& view)
    : view_(&view), au_(view.gain_au()), quot_(view.fwd_quotient()) {
  // Register the metric names up front so scrapes see them from the
  // first query, not only once the sampled probe first fires.
  (void)GetEngineMetrics();
  ovl_row_.assign(view.num_slots(), nullptr);
  const std::uint32_t longest_row =
      view.num_slots() > 0 ? std::ranges::max(view.fwd_count()) : 0;
  // At least one entry, so an erased row never reads as nullptr.
  zero_row_.assign(std::max<std::uint32_t>(longest_row, 1), 0.0);
  ovl_block_entries_ = std::max<std::size_t>(kOverlayBlockEntries, longest_row);
  sc_cur_.assign(view.slot_sc().begin(), view.slot_sc().end());
  sc_dirty_.assign(view.num_slots(), 0);
  is_seed_.assign(view.num_users(), 0);
  for (NodeId s : view.seeds()) is_seed_[s] = 1;
  commit_scratch_.stamp_epoch.assign(view.num_users(), 0);
  commit_scratch_.stamp_credit.assign(view.num_users(), 0.0);
}

const double* SnapshotQueryEngine::RowOf(std::uint64_t s) const {
  const double* row = ovl_row_[s];
  if (row != nullptr) return row;
  return view_->fwd_credit().data() + view_->fwd_begin()[s];
}

double* SnapshotQueryEngine::AllocateRow(std::uint32_t n) {
  if (ovl_blocks_used_ == 0 || ovl_block_fill_ + n > ovl_block_entries_) {
    if (ovl_blocks_used_ == ovl_blocks_.size()) {
      // Uninitialized: every entry is written by the row copy before it
      // is read, and untouched pages cost no resident memory.
      ovl_blocks_.push_back(
          std::make_unique_for_overwrite<double[]>(ovl_block_entries_));
    }
    ++ovl_blocks_used_;
    ovl_block_fill_ = 0;
  }
  double* row = ovl_blocks_[ovl_blocks_used_ - 1].get() + ovl_block_fill_;
  ovl_block_fill_ += n;
  ovl_entries_ += n;
  return row;
}

double* SnapshotQueryEngine::WritableRow(std::uint64_t s) {
  double* row = ovl_row_[s];
  if (row == nullptr) {
    const std::uint32_t n = view_->fwd_count()[s];
    const double* base = view_->fwd_credit().data() + view_->fwd_begin()[s];
    row = AllocateRow(n);
    std::copy(base, base + n, row);
    ovl_row_[s] = row;
    ovl_slots_.push_back(s);
  }
  return row;
}

void SnapshotQueryEngine::CollectLiveCreditors(
    std::uint64_t s, std::vector<CommitScratch::LiveCreditor>* out) const {
  const ActionId a = view_->slot_action()[s];
  const auto fwd_begin = view_->fwd_begin();
  const auto fwd_count = view_->fwd_count();
  const auto bwd_node = view_->bwd_node();
  const auto bwd_entry = view_->bwd_entry();
  const std::uint64_t bb = view_->bwd_begin()[s];
  const std::uint64_t bc = view_->bwd_count()[s];
  for (std::uint64_t j = bb; j < bb + bc; ++j) {
    // Every creditor of an action participates in it, so its slot must
    // exist, and the record must point into that slot's row; the view
    // only proves it lies in the action's slice, so tolerate a crafted
    // file rather than read past the row (one unsigned compare also
    // rejects an entry below the row's begin).
    const std::uint64_t sv = view_->SlotOf(bwd_node[j], a);
    if (sv == CreditSnapshotView::kNoSlot) continue;
    const std::uint64_t off = bwd_entry[j] - fwd_begin[sv];
    if (off >= fwd_count[sv]) continue;
    const double credit = RowOf(sv)[off];
    if (credit > 0.0) out->push_back({sv, credit});
  }
}

GainAccum SnapshotQueryEngine::PartialGain(NodeId x) const {
  // Algorithm 4 / Theorem 3 over the flat arrays, in fixed point
  // (core/fixed_gain.h): each slot's mg_a(x) is an exact int64 sum of
  // rounded quotients, rounded once into its term, and the terms add
  // exactly — the live model's bits, whatever the entry order. An
  // unwritten row sums the pool; a row this session wrote divides its
  // overlay credits on the fly, with the same rounding, so an entry the
  // session left untouched adds the same integer either way.
  const auto au = au_;
  const std::uint32_t ax = au[x];
  if (ax == 0) return 0;
  const FixedGain inv_ax = ToFixed(1.0 / ax);

  const auto uo = view_->user_offsets();
  const auto fwd_begin = view_->fwd_begin();
  const auto fwd_count = view_->fwd_count();
  const auto fwd_node = view_->fwd_node();
  const FixedGain* quot = quot_.data();

  GainAccum gain = 0;
  for (std::uint64_t s = uo[x]; s < uo[x + 1]; ++s) {
    const std::uint64_t fb = fwd_begin[s];
    const std::uint32_t fc = fwd_count[s];
    FixedGain mga = inv_ax;
    const double* credits = ovl_row_[s];
    if (credits == nullptr) {
      for (std::uint32_t i = 0; i < fc; ++i) mga += quot[fb + i];
    } else {
      for (std::uint32_t i = 0; i < fc; ++i) {
        mga += ToFixed(credits[i] / au[fwd_node[fb + i]]);
      }
    }
    gain += SlotTerm(mga, sc_cur_[s]);
  }
  return gain;
}

double SnapshotQueryEngine::MarginalGain(NodeId x) const {
  if constexpr (kObsEnabled) {
    if (obs_enabled_ && GainTickFires()) return TimedMarginalGain(x);
  }
  if (x >= view_->num_users() || is_seed_[x]) return 0.0;
  return FromFixed(PartialGain(x));
}

double SnapshotQueryEngine::TimedMarginalGain(NodeId x) const {
  const std::uint64_t t0 = MonotonicNowNs();
  double gain = 0.0;
  if (x < view_->num_users() && !is_seed_[x]) {
    gain = FromFixed(PartialGain(x));
  }
  const EngineMetrics& m = GetEngineMetrics();
  m.gain_latency->Record(MonotonicNowNs() - t0);
  m.gain_queries->Add(kObsSampleEvery);
  return gain;
}

double SnapshotQueryEngine::AccumulateGainTerms(NodeId x, double acc) const {
  return acc + FromFixed(PartialGain(x));
}

void SnapshotQueryEngine::CommitOneSlot(std::uint64_t s, NodeId x) {
  // Algorithm 5 for one slot (one action x performed) against the
  // copy-on-write overlay. Only the rows of x's live creditors are
  // written here, each copied on its first write; x's own row is erased
  // by CommitSeed afterwards. A credit of exactly 0.0 encodes "erased":
  // live entries are always > kZeroEpsilon, and the Lemma 2 update
  // below erases what falls to or below it, so 0.0 is unambiguous.
  const auto fwd_begin = view_->fwd_begin();
  const auto fwd_count = view_->fwd_count();
  const auto fwd_node = view_->fwd_node();

  const std::uint32_t fc = fwd_count[s];
  // Nothing flows through this slot: x credits nobody and nobody
  // credits x for this action, so every loop below is empty — skip
  // before touching the overlay. (Algorithm 5 is a no-op here: no pairs
  // to subtract, no SC folds, an empty row to erase.)
  if (fc == 0 && view_->bwd_count()[s] == 0) return;

  const ActionId a = view_->slot_action()[s];
  const double sc_x = sc_cur_[s];

  // Snapshot the live rows up front: the updates below only touch
  // (v, u) pairs with v != x and u != x, so the snapshots stay exact.
  CommitScratch* scratch = &commit_scratch_;
  scratch->credited.clear();
  scratch->creditors.clear();
  const std::uint64_t fb = fwd_begin[s];
  const double* row_x = RowOf(s);
  for (std::uint32_t i = 0; i < fc; ++i) {
    const double credit = row_x[i];
    if (credit > 0.0) scratch->credited.push_back({fwd_node[fb + i], credit});
  }
  CollectLiveCreditors(s, &scratch->creditors);

  // Lemma 2: subtract the through-x path product from every
  // (creditor, credited) pair. Each creditor's forward list is walked
  // once against an epoch-stamped credited set — every pair subtracted
  // exactly once, no hashing.
  const std::uint64_t epoch = ++scratch->epoch;
  for (const CommitScratch::LiveEntry& cu : scratch->credited) {
    scratch->stamp_epoch[cu.node] = epoch;
    scratch->stamp_credit[cu.node] = cu.credit;
  }
  for (const CommitScratch::LiveCreditor& cv : scratch->creditors) {
    // A live creditor's row always takes the column erase, so this is
    // the moment it is first written: copy it now.
    double* row = WritableRow(cv.slot);
    const std::uint64_t vb = fwd_begin[cv.slot];
    const std::uint32_t vc = fwd_count[cv.slot];
    for (std::uint32_t i = 0; i < vc; ++i) {
      const NodeId u = fwd_node[vb + i];
      if (u == x) {
        row[i] = 0.0;  // column erase: drop (creditor -> x)
        continue;
      }
      if (scratch->stamp_epoch[u] != epoch) continue;
      const double credit = row[i];
      if (credit == 0.0) continue;  // truncated away or already erased
      const double next = credit - cv.credit * scratch->stamp_credit[u];
      row[i] = next <= kZeroEpsilon ? 0.0 : next;
    }
  }
  // Lemma 3: fold x's credit into SC for every user x credits.
  for (const CommitScratch::LiveEntry& cu : scratch->credited) {
    const std::uint64_t su = view_->SlotOf(cu.node, a);
    if (su == CreditSnapshotView::kNoSlot) continue;
    if (!sc_dirty_[su]) {
      sc_dirty_[su] = 1;
      sc_touched_.push_back(su);
    }
    sc_cur_[su] += cu.credit * (1.0 - sc_x);
  }
}

void SnapshotQueryEngine::CommitSeed(NodeId x) {
  // Algorithm 5 against the copy-on-write overlay, one slot (one action
  // x performed) at a time.
  if (x >= view_->num_users() || is_seed_[x]) return;
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) obs_t0 = MonotonicNowNs();
  }
  const std::uint64_t copied_before = ovl_entries_;
  const auto uo = view_->user_offsets();
  const std::uint64_t slot_begin = uo[x];
  const std::uint64_t slot_end = uo[x + 1];
  for (std::uint64_t s = slot_begin; s < slot_end; ++s) CommitOneSlot(s, x);
  // Row erase: x has left the induced subgraph V - S. Nothing reads x's
  // row of an action after that action's update, so erasing every row
  // here is Algorithm 5's in-slot erase; no copy is made — the row reads
  // the shared zero row from now on, and is never written again (a seed
  // is nobody's live creditor, and is never committed twice).
  const auto fwd_count = view_->fwd_count();
  for (std::uint64_t s = slot_begin; s < slot_end; ++s) {
    if (fwd_count[s] == 0) continue;
    if (ovl_row_[s] == nullptr) ovl_slots_.push_back(s);
    ovl_row_[s] = zero_row_.data();
  }
  is_seed_[x] = 1;
  committed_.push_back(x);
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      const EngineMetrics& m = GetEngineMetrics();
      m.commits->Increment();
      m.overlay_entries->Add(ovl_entries_ - copied_before);
      m.commit_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
}

void SnapshotQueryEngine::ResetSession() {
  std::uint64_t obs_t0 = 0;
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      obs_t0 = MonotonicNowNs();
      // The session's copy-on-write footprint is final here: record it
      // before the rewind clears it.
      const EngineMetrics& m = GetEngineMetrics();
      m.overlay_slots->Record(ovl_slots_.size());
      m.overlay_bytes->Record(ovl_entries_ * sizeof(double));
    }
  }
  for (std::uint64_t s : ovl_slots_) ovl_row_[s] = nullptr;
  ovl_slots_.clear();
  // Keeps the blocks: steady-state queries do not allocate.
  ovl_blocks_used_ = 0;
  ovl_block_fill_ = 0;
  ovl_entries_ = 0;
  const auto base_sc = view_->slot_sc();
  for (std::uint64_t s : sc_touched_) {
    sc_cur_[s] = base_sc[s];
    sc_dirty_[s] = 0;
  }
  sc_touched_.clear();
  for (NodeId x : committed_) is_seed_[x] = 0;
  committed_.clear();
  if constexpr (kObsEnabled) {
    if (obs_enabled_) {
      const EngineMetrics& m = GetEngineMetrics();
      m.resets->Increment();
      m.reset_latency->Record(MonotonicNowNs() - obs_t0);
    }
  }
}

std::uint64_t SnapshotQueryEngine::ApproxMemoryBytes() const {
  auto bytes_of = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(v[0]);
  };
  const CommitScratch& scratch = commit_scratch_;
  return bytes_of(ovl_row_) +
         ovl_blocks_.size() * ovl_block_entries_ * sizeof(double) +
         bytes_of(ovl_slots_) + bytes_of(zero_row_) + bytes_of(sc_cur_) +
         bytes_of(sc_touched_) + bytes_of(sc_dirty_) + bytes_of(is_seed_) +
         bytes_of(committed_) + bytes_of(scratch.credited) +
         bytes_of(scratch.creditors) + bytes_of(scratch.stamp_epoch) +
         bytes_of(scratch.stamp_credit);
}

Status IncrementalRescan(const CreditSnapshotView& view, const Graph& graph,
                         const ActionLog& log,
                         const DirectCreditModel& credit_model,
                         const CdConfig& config, const std::string& out_path,
                         RescanStats* stats) {
  if (FingerprintGraph(graph) != view.graph_fingerprint()) {
    return Status::InvalidArgument(
        "rescan: graph does not fingerprint-match the snapshot");
  }
  if (log.num_users() != view.num_users()) {
    return Status::InvalidArgument(
        "rescan: log user space does not match the snapshot (" +
        std::to_string(log.num_users()) + " vs " +
        std::to_string(view.num_users()) + ")");
  }
  if (log.num_actions() < view.num_actions()) {
    return Status::Corruption(
        "rescan: log has fewer actions than the snapshot");
  }
  if (!view.seeds().empty()) {
    return Status::FailedPrecondition(
        "rescan: snapshot has committed seeds; Algorithm 5's removals "
        "cannot be replayed forward — rebuild from a post-Build store");
  }
  if (config.truncation_threshold != view.truncation_threshold()) {
    return Status::InvalidArgument(
        "rescan: truncation threshold " +
        std::to_string(config.truncation_threshold) +
        " differs from the snapshot's " +
        std::to_string(view.truncation_threshold()));
  }

  // Classify every action: unchanged (copy verbatim), extended (replay
  // the appended suffix), or new (scan from scratch). Any rewritten
  // history fails the per-action prefix hash and is rejected.
  const ActionId old_actions = view.num_actions();
  const ActionId new_actions = log.num_actions();
  std::vector<ActionId> changed;
  std::vector<std::uint64_t> changed_index(new_actions, ~0ULL);
  RescanStats local_stats;
  for (ActionId a = 0; a < old_actions; ++a) {
    const auto trace = log.ActionTrace(a);
    const std::uint32_t old_size = view.action_size()[a];
    if (trace.size() < old_size) {
      return Status::Corruption("rescan: action " + std::to_string(a) +
                                " shrank from " + std::to_string(old_size) +
                                " to " + std::to_string(trace.size()) +
                                " tuples");
    }
    if (HashActionTrace(trace.first(old_size)) !=
        view.action_trace_hash()[a]) {
      return Status::Corruption(
          "rescan: action " + std::to_string(a) +
          " is not an append-only extension of the snapshotted trace");
    }
    if (trace.size() > old_size) {
      changed_index[a] = changed.size();
      changed.push_back(a);
      ++local_stats.rescanned_actions;
      local_stats.replayed_tuples += trace.size() - old_size;
    } else {
      ++local_stats.unchanged_actions;
    }
  }
  for (ActionId a = old_actions; a < new_actions; ++a) {
    changed_index[a] = changed.size();
    changed.push_back(a);
    ++local_stats.new_actions;
    local_stats.replayed_tuples += log.ActionTrace(a).size();
  }

  // Rebuild only the changed tables: reconstruct the frozen credits in
  // their original first-touch order, then resume Algorithm 2 at the
  // first appended position. Actions are independent, so they fan out
  // one action per worker, as in Build().
  std::vector<ActionCreditTable> tables(changed.size());
  ParallelForDynamic(
      changed.size(), config.scan_threads,
      [&](std::size_t /*thread*/, std::size_t i) {
        const ActionId a = changed[i];
        const auto trace = log.ActionTrace(a);
        const std::uint32_t old_size =
            a < old_actions ? view.action_size()[a] : 0;
        ActionCreditTable& table = tables[i];
        for (std::uint32_t t = 0; t < old_size; ++t) {
          const NodeId v = trace[t].user;
          const std::uint64_t s = view.SlotOf(v, a);
          const std::uint64_t fb = view.fwd_begin()[s];
          for (std::uint64_t e = fb; e < fb + view.fwd_count()[s]; ++e) {
            table.AddCredit(v, view.fwd_node()[e], view.fwd_credit()[e]);
          }
        }
        const PropagationDag dag = BuildPropagationDag(graph, trace);
        std::vector<CreditEntry> scratch;
        ScanDagRange(dag, credit_model, config.truncation_threshold,
                     /*begin_pos=*/old_size, &table, &scratch);
      });

  // Assemble the new snapshot: fresh slot universe from the new log,
  // rebuilt tables where something changed, verbatim (entry-rebased)
  // copies of the mmap'd arrays everywhere else.
  SnapshotData data;
  InitSnapshotSlots(log, &data);
  data.truncation_threshold = config.truncation_threshold;
  data.graph_fingerprint = view.graph_fingerprint();
  data.log_fingerprint = FingerprintActionLog(log);
  FreezeScratch freeze;
  for (ActionId a = 0; a < new_actions; ++a) {
    const auto trace = log.ActionTrace(a);
    data.action_entry_begin[a] = data.fwd_node.size();
    data.action_size[a] = static_cast<std::uint32_t>(trace.size());
    data.action_trace_hash[a] = HashActionTrace(trace);
    if (changed_index[a] != ~0ULL) {
      INFLUMAX_RETURN_IF_ERROR(FreezeAction(tables[changed_index[a]], a,
                                            trace, &freeze, &data, &data));
      continue;
    }
    const std::uint64_t old_base = view.action_entry_begin()[a];
    const std::uint64_t new_base = data.action_entry_begin[a];
    for (const ActionTuple& t : trace) {
      const std::uint64_t old_s = view.SlotOf(t.user, a);
      const std::uint64_t new_s = data.SlotOf(t.user, a);
      data.fwd_begin[new_s] = data.fwd_node.size();
      data.fwd_count[new_s] = view.fwd_count()[old_s];
      const std::uint64_t fb = view.fwd_begin()[old_s];
      for (std::uint64_t e = fb; e < fb + view.fwd_count()[old_s]; ++e) {
        data.fwd_node.push_back(view.fwd_node()[e]);
        data.fwd_credit.push_back(view.fwd_credit()[e]);
      }
      data.bwd_begin[new_s] = data.bwd_node.size();
      data.bwd_count[new_s] = view.bwd_count()[old_s];
      const std::uint64_t bb = view.bwd_begin()[old_s];
      for (std::uint64_t j = bb; j < bb + view.bwd_count()[old_s]; ++j) {
        data.bwd_node.push_back(view.bwd_node()[j]);
        data.bwd_entry.push_back(view.bwd_entry()[j] - old_base + new_base);
      }
    }
  }
  data.action_entry_begin[new_actions] = data.fwd_node.size();

  INFLUMAX_RETURN_IF_ERROR(WriteSnapshotFile(data, out_path));
  if (stats != nullptr) *stats = local_stats;
  return Status::OK();
}

}  // namespace influmax
