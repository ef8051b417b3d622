#include "serve/snapshot_writer.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/flat_hash.h"
#include "core/fixed_gain.h"
#include "serve/snapshot_format.h"
#include "serve/snapshot_view.h"

namespace influmax {
namespace {

std::uint64_t HashChain(std::uint64_t h, std::uint64_t v) {
  return HashMix64(h ^ HashMix64(v));
}

std::uint64_t PairKey(NodeId v, NodeId u) {
  return (static_cast<std::uint64_t>(v) << 32) | u;
}

template <typename T>
void WriteSection(BinaryWriter* writer, const std::vector<T>& values) {
  writer->WriteVector(values);
  writer->PadToAlignment(8);
}

}  // namespace

std::uint64_t SnapshotData::SlotOf(NodeId u, ActionId a) const {
  const auto begin = slot_action.begin() +
                     static_cast<std::ptrdiff_t>(user_offsets[u]);
  const auto end = slot_action.begin() +
                   static_cast<std::ptrdiff_t>(user_offsets[u + 1]);
  const auto it = std::lower_bound(begin, end, a);
  assert(it != end && *it == a && "SlotOf: (u, a) pair not in the log");
  return static_cast<std::uint64_t>(it - slot_action.begin());
}

std::uint64_t FingerprintGraph(const Graph& graph) {
  std::uint64_t h = HashChain(0x67726170685F6670ULL, graph.num_nodes());
  h = HashChain(h, graph.num_edges());
  for (NodeId u = 0; u < graph.num_nodes(); ++u) {
    h = HashChain(h, graph.OutDegree(u));
  }
  for (NodeId target : graph.out_targets()) h = HashChain(h, target);
  return h;
}

std::uint64_t HashActionTrace(std::span<const ActionTuple> trace) {
  std::uint64_t h = HashChain(0x74726163655F6670ULL, trace.size());
  for (const ActionTuple& t : trace) {
    h = HashChain(h, t.user);
    h = HashChain(h, std::bit_cast<std::uint64_t>(t.time));
  }
  return h;
}

std::uint64_t FingerprintTraceHashes(
    NodeId num_users, std::span<const std::uint64_t> trace_hashes) {
  std::uint64_t h = HashChain(0x6C6F675F66707630ULL, num_users);
  h = HashChain(h, trace_hashes.size());
  for (std::uint64_t trace_hash : trace_hashes) {
    h = HashChain(h, trace_hash);
  }
  return h;
}

std::uint64_t FingerprintActionLog(const ActionLog& log) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(log.num_actions());
  for (ActionId a = 0; a < log.num_actions(); ++a) {
    hashes.push_back(HashActionTrace(log.ActionTrace(a)));
  }
  return FingerprintTraceHashes(log.num_users(), hashes);
}

void AppendActionFromTable(const ActionCreditTable& table, ActionId a,
                           std::span<const ActionTuple> trace,
                           SnapshotData* data) {
  // First pass, forward lists: participants in trace order, each list in
  // live adjacency (first-touch) order with stale ids dropped — the exact
  // sequence the live MarginalGain sums over. Entry indices are recorded
  // so the backward pass can reference the shared (v, u) pair.
  FlatHashMap<std::uint64_t, std::uint64_t> entry_of;
  for (const ActionTuple& t : trace) {
    const NodeId v = t.user;
    const std::uint64_t s = data->SlotOf(v, a);
    data->fwd_begin[s] = data->fwd_node.size();
    std::uint32_t count = 0;
    for (NodeId u : table.CreditedUsers(v)) {
      const double credit = table.Credit(v, u);
      if (credit > 0.0) {
        *entry_of.TryEmplace(PairKey(v, u)).first = data->fwd_node.size();
        data->fwd_node.push_back(u);
        data->fwd_credit.push_back(credit);
        ++count;
      }
    }
    data->fwd_count[s] = count;
  }
  // Second pass, backward lists, canonicalized to ascending creditor id
  // (live backward order is insertion-history-dependent and never affects
  // results; a canonical order makes snapshot bytes reproducible).
  std::vector<NodeId> creditors;
  for (const ActionTuple& t : trace) {
    const NodeId u = t.user;
    const std::uint64_t s = data->SlotOf(u, a);
    creditors.clear();
    for (NodeId w : table.Creditors(u)) {
      if (table.Credit(w, u) > 0.0) creditors.push_back(w);
    }
    std::sort(creditors.begin(), creditors.end());
    data->bwd_begin[s] = data->bwd_node.size();
    data->bwd_count[s] = static_cast<std::uint32_t>(creditors.size());
    for (NodeId w : creditors) {
      const std::uint64_t* entry = entry_of.Find(PairKey(w, u));
      assert(entry != nullptr && "backward record without forward entry");
      data->bwd_node.push_back(w);
      data->bwd_entry.push_back(*entry);
    }
  }
}

void InitSnapshotSlots(const ActionLog& log, SnapshotData* data) {
  const NodeId num_users = log.num_users();
  const ActionId num_actions = log.num_actions();
  const std::uint64_t num_slots = log.num_tuples();
  data->num_users = num_users;
  data->num_actions = num_actions;
  data->au.resize(num_users);
  data->user_offsets.resize(num_users + 1);
  data->user_offsets[0] = 0;
  for (NodeId u = 0; u < num_users; ++u) {
    data->au[u] = log.ActionsPerformedBy(u);
    data->user_offsets[u + 1] = data->user_offsets[u] + data->au[u];
  }
  data->slot_action.resize(num_slots);
  data->slot_sc.assign(num_slots, 0.0);
  for (NodeId u = 0; u < num_users; ++u) {
    std::uint64_t s = data->user_offsets[u];
    for (const UserAction& ua : log.UserActions(u)) {
      data->slot_action[s] = ua.action;
      ++s;
    }
  }
  data->fwd_begin.assign(num_slots, 0);
  data->fwd_count.assign(num_slots, 0);
  data->bwd_begin.assign(num_slots, 0);
  data->bwd_count.assign(num_slots, 0);
  data->action_entry_begin.assign(num_actions + 1, 0);
  data->action_size.assign(num_actions, 0);
  data->action_trace_hash.assign(num_actions, 0);
}

SnapshotData BuildSnapshotData(const UserCreditStore& store,
                               const Graph& graph, const ActionLog& log,
                               double truncation_threshold,
                               std::span<const NodeId> committed_seeds) {
  SnapshotData data;
  InitSnapshotSlots(log, &data);
  const NodeId num_users = log.num_users();
  const ActionId num_actions = log.num_actions();
  data.truncation_threshold = truncation_threshold;
  data.graph_fingerprint = FingerprintGraph(graph);
  data.log_fingerprint = FingerprintActionLog(log);
  for (NodeId u = 0; u < num_users; ++u) {
    std::uint64_t s = data.user_offsets[u];
    for (const UserAction& ua : log.UserActions(u)) {
      data.slot_sc[s] = store.SetCredit(u, ua.action);
      ++s;
    }
  }
  for (ActionId a = 0; a < num_actions; ++a) {
    const auto trace = log.ActionTrace(a);
    data.action_entry_begin[a] = data.fwd_node.size();
    data.action_size[a] = static_cast<std::uint32_t>(trace.size());
    data.action_trace_hash[a] = HashActionTrace(trace);
    AppendActionFromTable(store.table(a), a, trace, &data);
  }
  data.action_entry_begin[num_actions] = data.fwd_node.size();
  data.seeds.assign(committed_seeds.begin(), committed_seeds.end());
  return data;
}

namespace {

/// ToFixed(credit / au) per entry, refusing what Open would refuse: a
/// negative or non-finite credit, a quotient past the headroom, and a
/// slot whose mg_a(x) would overflow a FixedGain (docs/gain_kernel.md).
Status DeriveQuotientPool(const SnapshotData& data,
                          std::vector<FixedGain>* pool) {
  pool->resize(data.fwd_node.size());
  FixedGain max_q = 0;
  for (std::size_t e = 0; e < pool->size(); ++e) {
    const double q = data.fwd_credit[e] / data.au[data.fwd_node[e]];
    if (!(q >= 0.0 && q < kGainHeadroom)) {
      return Status::InvalidArgument(
          "snapshot write: entry " + std::to_string(e) +
          " credit is negative, non-finite or past the fixed-point headroom");
    }
    (*pool)[e] = ToFixed(q);
    max_q = std::max(max_q, (*pool)[e]);
  }
  const std::uint64_t slot = FindSlotPastGainHeadroom(
      data.au, data.user_offsets, data.fwd_begin, data.fwd_count, *pool,
      max_q);
  if (slot != CreditSnapshotView::kNoSlot) {
    return Status::InvalidArgument("snapshot write: slot " +
                                   std::to_string(slot) +
                                   " gain exceeds the fixed-point headroom");
  }
  return Status::OK();
}

Status WriteSnapshotFileImpl(const SnapshotData& data,
                             const std::string& path) {
  // kFwdQuotient is derived here rather than carried in SnapshotData, so
  // every producer — full build, incremental rescan, shard slicer — gets
  // a pool consistent with its own au section by construction; the view
  // re-derives it at open. Note a shard blob's pool divides by its
  // *local* au; engines serving shards under a global-au override get a
  // derived pool from ShardedSnapshot::shard_quotient instead.
  std::vector<FixedGain> fwd_quot;
  INFLUMAX_RETURN_IF_ERROR(DeriveQuotientPool(data, &fwd_quot));
  BinaryWriter writer(path, kSnapshotMagic, kSnapshotVersion);
  INFLUMAX_RETURN_IF_ERROR(writer.status());
  writer.set_failpoint("snapshot.write");
  writer.WriteU32(0);  // pad the prelude to an 8-byte boundary
  writer.WriteU64(data.graph_fingerprint);
  writer.WriteU64(data.log_fingerprint);
  writer.WriteU32(data.num_users);
  writer.WriteU32(data.num_actions);
  writer.WriteU64(data.slot_action.size());
  writer.WriteU64(data.fwd_node.size());
  writer.WriteDouble(data.truncation_threshold);
  if (writer.status().ok() &&
      writer.bytes_written() != kSnapshotPreludeBytes) {
    return Status::Internal(
        "snapshot prelude layout drifted: wrote " +
        std::to_string(writer.bytes_written()) + " bytes, format pins " +
        std::to_string(kSnapshotPreludeBytes));
  }
  WriteSection(&writer, data.au);
  WriteSection(&writer, data.user_offsets);
  WriteSection(&writer, data.slot_action);
  WriteSection(&writer, data.slot_sc);
  WriteSection(&writer, data.action_entry_begin);
  WriteSection(&writer, data.fwd_begin);
  WriteSection(&writer, data.fwd_count);
  WriteSection(&writer, data.bwd_begin);
  WriteSection(&writer, data.bwd_count);
  WriteSection(&writer, data.fwd_node);
  WriteSection(&writer, data.fwd_credit);
  WriteSection(&writer, fwd_quot);
  WriteSection(&writer, data.bwd_node);
  WriteSection(&writer, data.bwd_entry);
  WriteSection(&writer, data.action_size);
  WriteSection(&writer, data.action_trace_hash);
  WriteSection(&writer, data.seeds);
  INFLUMAX_RETURN_IF_ERROR(writer.Finish());
  // Durability point of the swap protocol (docs/durability.md): a
  // manifest fingerprint of this blob is only trustworthy once its
  // bytes are on stable storage, so every producer syncs here, before
  // any manifest names the file.
  INFLUMAX_FAILPOINT("snapshot.fsync");
  return SyncFileToDisk(path);
}

}  // namespace

Status WriteSnapshotFile(const SnapshotData& data, const std::string& path) {
  const Status status = WriteSnapshotFileImpl(data, path);
  if (!status.ok()) {
    // No partial outputs on the error path — a half-written blob left
    // in a generation dir looks exactly like a crash artifact to the
    // recovery scan. (An injected kTornCrash bypasses this by design:
    // a real crash gets no cleanup either.)
    std::remove(path.c_str());
  }
  return status;
}

Status WriteCreditSnapshot(const CreditDistributionModel& model,
                           const std::string& path) {
  const SnapshotData data = BuildSnapshotData(
      model.store(), model.graph(), model.log(),
      model.config().truncation_threshold, model.committed_seeds());
  return WriteSnapshotFile(data, path);
}

Status CreditDistributionModel::WriteSnapshot(const std::string& path) const {
  return WriteCreditSnapshot(*this, path);
}

}  // namespace influmax
