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

Status FreezeAction(const ActionCreditTable& table, ActionId a,
                    std::span<const ActionTuple> trace, FreezeScratch* scratch,
                    SnapshotData* slots, SnapshotData* entries) {
  const std::size_t n = trace.size();
  if (scratch->position_of.size() < slots->num_users) {
    scratch->position_of.resize(slots->num_users, 0);
  }
  std::vector<std::uint32_t>& position_of = scratch->position_of;
  std::vector<std::uint64_t>& slot_at = scratch->slot_at;
  slot_at.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    position_of[trace[t].user] = static_cast<std::uint32_t>(t + 1);
    slot_at[t] = slots->SlotOf(trace[t].user, a);
    slots->bwd_count[slot_at[t]] = 0;
  }

  // Forward rows: participants in trace order, each row in first-touch
  // order. Every credited user must take part in the action, so its
  // backward row is counted here, in the same pass. A scan guarantees
  // that; a table refilled from a snapshot file (IncrementalRescan)
  // only does if the file is honest, so it is checked.
  std::vector<NodeId>& fwd_node = entries->fwd_node;
  for (std::size_t t = 0; t < n; ++t) {
    const NodeId v = trace[t].user;
    const std::uint64_t s = slot_at[t];
    slots->fwd_begin[s] = fwd_node.size();
    std::uint32_t count = 0;
    for (const ActionCreditTable::Link& link : table.CreditedUsers(v)) {
      const NodeId u = link.node;
      const double credit = table.credit(link.entry);
      if (!(credit > 0.0)) continue;
      if (u >= position_of.size() || position_of[u] == 0) {
        for (const ActionTuple& tuple : trace) position_of[tuple.user] = 0;
        return Status::Corruption(
            "freeze: action " + std::to_string(a) + " credits user " +
            std::to_string(u) + ", who does not take part in it");
      }
      fwd_node.push_back(u);
      entries->fwd_credit.push_back(credit);
      ++slots->bwd_count[slot_at[position_of[u] - 1]];
      ++count;
    }
    slots->fwd_count[s] = count;
  }

  // Backward rows, laid out in trace order like the forward rows, and
  // filled by walking the creditors in ascending id: each row then
  // lists its creditors in that canonical order (the scan's backward
  // order is insertion-dependent and never affects results; a canonical
  // order makes snapshot bytes reproducible).
  std::vector<std::uint64_t>& cursor = scratch->cursor;
  cursor.resize(n);
  std::uint64_t next = entries->bwd_node.size();
  for (std::size_t t = 0; t < n; ++t) {
    slots->bwd_begin[slot_at[t]] = next;
    cursor[t] = next;
    next += slots->bwd_count[slot_at[t]];
  }
  entries->bwd_node.resize(next);
  entries->bwd_entry.resize(next);
  auto& by_user = scratch->by_user;
  by_user.clear();
  for (std::size_t t = 0; t < n; ++t) {
    by_user.emplace_back(trace[t].user, static_cast<std::uint32_t>(t));
  }
  std::sort(by_user.begin(), by_user.end());
  for (const auto& [v, t] : by_user) {
    const std::uint64_t s = slot_at[t];
    const std::uint64_t begin = slots->fwd_begin[s];
    for (std::uint64_t e = begin; e < begin + slots->fwd_count[s]; ++e) {
      std::uint64_t& at = cursor[position_of[fwd_node[e]] - 1];
      entries->bwd_node[at] = v;
      entries->bwd_entry[at] = e;
      ++at;
    }
  }
  assert(entries->bwd_node.size() == fwd_node.size() &&
         "backward records must biject with forward entries");
  for (const ActionTuple& tuple : trace) position_of[tuple.user] = 0;
  return Status::OK();
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

Status CheckGainHeadroom(const SnapshotData& data) {
  double max_q = 0.0;
  for (std::size_t e = 0; e < data.fwd_node.size(); ++e) {
    const double q = data.fwd_credit[e] / data.au[data.fwd_node[e]];
    if (!(q >= 0.0 && q < kGainHeadroom)) {
      return Status::InvalidArgument(
          "snapshot image: entry " + std::to_string(e) +
          " credit is negative, non-finite or past the fixed-point headroom");
    }
    max_q = std::max(max_q, q);
  }
  const std::uint64_t slot = FindSlotPastGainHeadroom(
      CreditSnapshotView::InMemory(data), ToFixed(max_q));
  if (slot != CreditSnapshotView::kNoSlot) {
    return Status::InvalidArgument("snapshot image: slot " +
                                   std::to_string(slot) +
                                   " gain exceeds the fixed-point headroom");
  }
  return Status::OK();
}

namespace {

Status WriteSnapshotFileImpl(const SnapshotData& data,
                             const std::string& path) {
  // Every producer — full build, incremental rescan, shard slicer —
  // passes this check, so no writer emits a file Open would refuse. The
  // quotient pool is not written: a view derives it from the credits.
  INFLUMAX_RETURN_IF_ERROR(CheckGainHeadroom(data));
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

}  // namespace influmax
