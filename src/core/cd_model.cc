#include "core/cd_model.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "actionlog/propagation_dag.h"
#include "common/parallel.h"

namespace influmax {

Status CdConfig::Validate() const {
  if (truncation_threshold < 0.0) {
    return Status::InvalidArgument(
        "CD scan: truncation threshold must be >= 0");
  }
  if (scan_threads > kMaxThreads || select_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "CD scan: thread count exceeds kMaxThreads (" +
        std::to_string(kMaxThreads) +
        ") — a negative value cast to size_t?");
  }
  return Status::OK();
}

void ScanDagRange(const PropagationDag& dag,
                  const DirectCreditModel& credit_model, double lambda,
                  NodeId begin_pos, ActionCreditTable* table,
                  std::vector<CreditEntry>* creditor_scratch) {
  // The propagation DAG gives each activation its potential-influencer
  // set N_in(u, a); total credits accumulate by the recursive definition
  // (Eq. 5) in topological (chronological) order. Because credit only
  // flows forward in time, resuming at begin_pos over a table already
  // holding the credits of positions [0, begin_pos) is bit-identical to
  // a full scan — the seam the incremental rescan exploits.
  for (NodeId pos = begin_pos; pos < dag.size(); ++pos) {
    const auto parents = dag.Parents(pos);
    if (parents.empty()) continue;
    const auto edges = dag.ParentEdges(pos);
    const NodeId u = dag.UserAt(pos);
    const std::uint32_t din = static_cast<std::uint32_t>(parents.size());
    for (std::size_t i = 0; i < parents.size(); ++i) {
      const NodeId v = dag.UserAt(parents[i]);
      const double gamma = credit_model.Gamma(
          u, din, dag.TimeAt(pos) - dag.TimeAt(parents[i]), edges[i]);
      if (gamma < lambda || gamma <= 0.0) continue;
      // Transitive credit: everyone already crediting v passes credit
      // through to u, scaled by gamma (Eq. 5), subject to truncation.
      creditor_scratch->clear();
      table->SnapshotCreditors(v, creditor_scratch);
      for (const CreditEntry& creditor : *creditor_scratch) {
        const double transitive = creditor.credit * gamma;
        if (transitive >= lambda && transitive > 0.0) {
          table->AddCredit(creditor.node, u, transitive);
        }
      }
      table->AddCredit(v, u, gamma);
    }
  }
}

namespace {

/// The PR 3 merge discipline, retained as the narrow-DAG fallback:
/// replay the positions in order with the precomputed gammas, issuing
/// the identical SnapshotCreditors / AddCredit sequence as the serial
/// scan (see ScanDagRange for why the recursion is position-ordered).
void SerialGammaMerge(const PropagationDag& dag, double lambda,
                      NodeId begin_pos, NodeId end_pos,
                      std::span<const std::uint64_t> gamma_begin,
                      std::span<const std::pair<NodeId, double>> gammas,
                      ActionCreditTable* table,
                      std::vector<CreditEntry>* creditor_scratch) {
  for (NodeId pos = begin_pos; pos < end_pos; ++pos) {
    const NodeId u = dag.UserAt(pos);
    const std::size_t rel = pos - begin_pos;
    for (std::uint64_t g = gamma_begin[rel]; g < gamma_begin[rel + 1]; ++g) {
      const auto [parent_pos, gamma] = gammas[g];
      const NodeId v = dag.UserAt(parent_pos);
      creditor_scratch->clear();
      table->SnapshotCreditors(v, creditor_scratch);
      for (const CreditEntry& creditor : *creditor_scratch) {
        const double transitive = creditor.credit * gamma;
        if (transitive >= lambda && transitive > 0.0) {
          table->AddCredit(creditor.node, u, transitive);
        }
      }
      table->AddCredit(v, u, gamma);
    }
  }
}

}  // namespace

void ScanDagRangeSharded(const PropagationDag& dag,
                         const DirectCreditModel& credit_model, double lambda,
                         NodeId begin_pos, std::size_t num_threads,
                         ActionCreditTable* table,
                         std::span<ScanArena> arenas) {
  const NodeId end_pos = dag.size();
  if (begin_pos >= end_pos) return;
  if (arenas.empty()) {
    // No scratch to shard over; fall back to the serial scan rather
    // than silently producing an empty table.
    std::vector<CreditEntry> scratch;
    ScanDagRange(dag, credit_model, lambda, begin_pos, table, &scratch);
    return;
  }
  const std::size_t total = end_pos - begin_pos;
  const std::size_t workers = std::min(
      {EffectiveThreadCount(num_threads), total, arenas.size()});
  if (workers == 1) {
    ScanDagRange(dag, credit_model, lambda, begin_pos, table,
                 &arenas[0].creditors);
    return;
  }

  // Phase A: shard the position range; each shard computes its direct
  // credits (parent position, gamma) — parents, time deltas, and the
  // Gamma evaluation, filtered by the truncation threshold exactly as
  // the serial loop — into its own arena. Gamma is a pure function of
  // the tuple, so every value is the bit the serial scan would compute.
  struct Shard {
    NodeId begin = 0;
    NodeId end = 0;
    std::vector<std::pair<NodeId, double>> gammas;  // (parent pos, gamma)
    std::vector<std::uint32_t> counts;              // per position
  };
  // More shards than workers so a dense stretch of the DAG cannot strand
  // the pool; shard geometry never affects the result.
  const std::size_t chunk =
      std::max<std::size_t>(1, (total + 4 * workers - 1) / (4 * workers));
  std::vector<Shard> shards((total + chunk - 1) / chunk);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].begin = begin_pos + static_cast<NodeId>(s * chunk);
    shards[s].end = static_cast<NodeId>(
        std::min<std::size_t>(shards[s].begin + chunk, end_pos));
  }
  ParallelForDynamic(shards.size(), workers, [&](std::size_t,
                                                 std::size_t s) {
    Shard& shard = shards[s];
    shard.counts.reserve(shard.end - shard.begin);
    for (NodeId pos = shard.begin; pos < shard.end; ++pos) {
      std::uint32_t kept = 0;
      const auto parents = dag.Parents(pos);
      if (!parents.empty()) {
        const auto edges = dag.ParentEdges(pos);
        const NodeId u = dag.UserAt(pos);
        const std::uint32_t din = static_cast<std::uint32_t>(parents.size());
        for (std::size_t i = 0; i < parents.size(); ++i) {
          const double gamma = credit_model.Gamma(
              u, din, dag.TimeAt(pos) - dag.TimeAt(parents[i]), edges[i]);
          if (gamma < lambda || gamma <= 0.0) continue;
          shard.gammas.emplace_back(parents[i], gamma);
          ++kept;
        }
      }
      shard.counts.push_back(kept);
    }
  });

  // Flatten the per-shard arenas into one position-indexed gamma array:
  // shards are contiguous position ranges in order and each shard's
  // gammas are position-ordered, so plain concatenation preserves the
  // serial evaluation order.
  std::vector<std::uint64_t> gamma_begin(total + 1, 0);
  {
    std::size_t rel = 0;
    for (const Shard& shard : shards) {
      for (const std::uint32_t kept : shard.counts) {
        gamma_begin[rel + 1] = gamma_begin[rel] + kept;
        ++rel;
      }
    }
  }
  std::vector<std::pair<NodeId, double>> gammas;
  gammas.reserve(gamma_begin[total]);
  for (Shard& shard : shards) {
    gammas.insert(gammas.end(), shard.gammas.begin(), shard.gammas.end());
    shard.gammas = {};
    shard.counts = {};
  }

  // Row recursion (see ScanDagRange): the creditor row of position u is
  // written only while processing u, and reads only the finalized rows
  // of u's parents — strictly earlier *levels*. The wavefront schedule
  // exploits exactly that: process one level at a time, rows within a
  // level in parallel. A near-chain DAG has nothing to parallelize per
  // level and would pay one barrier per position, so narrow DAGs replay
  // the precomputed gammas serially instead (phase A's parallelism — the
  // Gamma evaluations — is retained either way, and both phase B
  // disciplines issue the identical first-touch sequence).
  std::vector<std::uint32_t> levels;
  const std::uint32_t num_levels = dag.ComputeLevels(&levels);
  constexpr std::size_t kWavefrontMinAvgWidth = 2;
  if (static_cast<std::size_t>(num_levels) * kWavefrontMinAvgWidth > total) {
    SerialGammaMerge(dag, lambda, begin_pos, end_pos, gamma_begin, gammas,
                     table, &arenas[0].creditors);
    return;
  }

  // Counting-sort the positions of [begin_pos, end_pos) by level,
  // ascending within a level (stable), and record the level boundaries.
  std::vector<std::size_t> level_begin(num_levels + 1, 0);
  for (NodeId pos = begin_pos; pos < end_pos; ++pos) {
    ++level_begin[levels[pos] + 1];
  }
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    level_begin[l + 1] += level_begin[l];
  }
  std::vector<NodeId> by_level(total);
  {
    std::vector<std::size_t> cursor(level_begin.begin(),
                                    level_begin.end() - 1);
    for (NodeId pos = begin_pos; pos < end_pos; ++pos) {
      by_level[cursor[levels[pos]]++] = pos;
    }
  }

  // Phase B, wave after wave: each worker builds its positions' creditor
  // rows into per-row sub-tables in its arena. A row reads parent rows
  // either from earlier-level sub-tables (stable RowArena addresses; the
  // level barrier publishes them) or, for parents before begin_pos (the
  // incremental-rescan seam), from the untouched table itself. Nothing
  // writes the shared table here, so the reads are race-free.
  std::vector<std::span<const CreditEntry>> rows(total);
  for (std::size_t t = 0; t < workers; ++t) {
    arenas[t].rows.Reset();
    arenas[t].row_index.Clear();
    arenas[t].row_epoch = 0;
  }
  ParallelForLevels(level_begin, workers, [&](std::size_t t, std::size_t i) {
    const NodeId pos = by_level[i];
    ScanArena& arena = arenas[t];
    RowArena& row = arena.rows;
    row.OpenRow();
    // Epoch-tag the row index instead of clearing it: Clear() scans the
    // whole (high-water) capacity, which would charge every small row
    // for the biggest row this worker ever built. A stale epoch reads
    // as "absent"; at most `total` rows per call, so the 32-bit epoch
    // cannot wrap between the Clear() above and here.
    const std::uint64_t epoch_tag =
        static_cast<std::uint64_t>(++arena.row_epoch) << 32;
    // First-touch append / in-order accumulate — the AddCredit sequence
    // the serial scan would issue for this row, replayed into the
    // sub-table so the stitch can issue it for real later.
    const auto add = [&](NodeId w, double delta) {
      auto [slot, inserted] = arena.row_index.TryEmplace(w);
      if (inserted || (*slot >> 32) != arena.row_epoch) {
        *slot = epoch_tag | row.RowSize();
        row.Push({w, delta});
      } else {
        row.At(static_cast<std::uint32_t>(*slot)).credit += delta;
      }
    };
    const std::size_t rel = pos - begin_pos;
    for (std::uint64_t g = gamma_begin[rel]; g < gamma_begin[rel + 1]; ++g) {
      const auto [parent_pos, gamma] = gammas[g];
      const NodeId v = dag.UserAt(parent_pos);
      if (parent_pos >= begin_pos) {
        for (const CreditEntry& entry : rows[parent_pos - begin_pos]) {
          const double transitive = entry.credit * gamma;
          if (transitive >= lambda && transitive > 0.0) {
            add(entry.node, transitive);
          }
        }
      } else {
        arena.creditors.clear();
        table->SnapshotCreditors(v, &arena.creditors);
        for (const CreditEntry& creditor : arena.creditors) {
          const double transitive = creditor.credit * gamma;
          if (transitive >= lambda && transitive > 0.0) {
            add(creditor.node, transitive);
          }
        }
      }
      add(v, gamma);
    }
    rows[rel] = row.FinishRow();
  });

  // Deterministic stitch: insert every row into the flat table in
  // position order. Each (w, u) pair is created exactly once (rows hold
  // unique creditors, and no (., u) entry predates processing u), so the
  // adjacency first-touch order — backward[u] in row order, forward[w]
  // in position order of u — is the serial scan's, and every credit is
  // the serial scan's in-order sum. Snapshots are therefore
  // byte-identical for any thread count.
  for (NodeId pos = begin_pos; pos < end_pos; ++pos) {
    const NodeId u = dag.UserAt(pos);
    for (const CreditEntry& entry : rows[pos - begin_pos]) {
      table->AddCredit(entry.node, u, entry.credit);
    }
  }
}

}  // namespace influmax
