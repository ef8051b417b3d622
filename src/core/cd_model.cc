#include "core/cd_model.h"

#include <string>
#include <vector>

#include "actionlog/propagation_dag.h"

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

}  // namespace influmax
