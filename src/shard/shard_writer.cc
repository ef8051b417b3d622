#include "shard/shard_writer.h"

#include <algorithm>
#include <cstdio>

namespace influmax {

std::vector<ActionId> PlanActionRanges(
    std::span<const std::uint64_t> action_entry_begin,
    std::size_t num_shards) {
  const std::size_t num_actions = action_entry_begin.size() - 1;
  std::vector<ActionId> begins{0};
  if (num_actions == 0) return begins;
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(num_shards, num_actions));
  const std::uint64_t total_entries = action_entry_begin.back();
  // Greedy boundary advance: close shard i at the first action whose
  // cumulative entry count reaches i/N of the total, but never before
  // leaving enough actions for the remaining shards to be non-empty.
  for (std::size_t i = 1; i < shards; ++i) {
    const std::uint64_t target = total_entries * i / shards;
    ActionId boundary = begins.back() + 1;  // at least one action per shard
    while (boundary < num_actions - (shards - i - 1) &&
           action_entry_begin[boundary] < target) {
      ++boundary;
    }
    begins.push_back(boundary);
  }
  begins.push_back(static_cast<ActionId>(num_actions));
  return begins;
}

SnapshotData SliceShardData(const CreditSnapshotView& mono, ActionId begin,
                            ActionId end) {
  SnapshotData data;
  const NodeId num_users = mono.num_users();
  const ActionId local_actions = end - begin;
  const auto aeb = mono.action_entry_begin();
  const std::uint64_t entry_base = aeb[begin];
  const std::uint64_t local_entries = aeb[end] - entry_base;

  data.num_users = num_users;
  data.num_actions = local_actions;
  data.graph_fingerprint = mono.graph_fingerprint();
  data.truncation_threshold = mono.truncation_threshold();
  // The fingerprint of the range's restricted log, derivable from the
  // per-action trace hashes alone — it makes this slice byte-identical
  // to a snapshot built from ActionLog::RestrictToActions directly.
  data.log_fingerprint = FingerprintTraceHashes(
      num_users, mono.action_trace_hash().subspan(begin, local_actions));

  // Slot universe: each user keeps the contiguous run of slots whose
  // action falls in [begin, end). Global slot order is user-major with
  // actions ascending, so the run is found by two binary searches.
  const auto uo = mono.user_offsets();
  const auto slot_action = mono.slot_action();
  data.au.resize(num_users);
  data.user_offsets.resize(num_users + 1);
  data.user_offsets[0] = 0;
  std::vector<std::uint64_t> slot_lo(num_users);
  for (NodeId u = 0; u < num_users; ++u) {
    const ActionId* first = slot_action.data() + uo[u];
    const ActionId* last = slot_action.data() + uo[u + 1];
    const ActionId* lo = std::lower_bound(first, last, begin);
    const ActionId* hi = std::lower_bound(lo, last, end);
    slot_lo[u] = static_cast<std::uint64_t>(lo - slot_action.data());
    data.au[u] = static_cast<std::uint32_t>(hi - lo);
    data.user_offsets[u + 1] = data.user_offsets[u] + data.au[u];
  }
  const std::uint64_t local_slots = data.user_offsets[num_users];
  data.slot_action.resize(local_slots);
  data.slot_sc.resize(local_slots);
  data.fwd_begin.resize(local_slots);
  data.fwd_count.resize(local_slots);
  data.bwd_begin.resize(local_slots);
  data.bwd_count.resize(local_slots);
  for (NodeId u = 0; u < num_users; ++u) {
    std::uint64_t dst = data.user_offsets[u];
    for (std::uint64_t s = slot_lo[u]; dst < data.user_offsets[u + 1];
         ++s, ++dst) {
      data.slot_action[dst] = slot_action[s] - begin;
      data.slot_sc[dst] = mono.slot_sc()[s];
      data.fwd_begin[dst] = mono.fwd_begin()[s] - entry_base;
      data.fwd_count[dst] = mono.fwd_count()[s];
      data.bwd_begin[dst] = mono.bwd_begin()[s] - entry_base;
      data.bwd_count[dst] = mono.bwd_count()[s];
    }
  }

  // Entry pools: the monolithic layout is action-major, and backward
  // records biject with forward entries action by action, so both pools'
  // [aeb[begin], aeb[end]) ranges are exactly this shard's records — one
  // contiguous copy each, with entry indices rebased.
  data.action_entry_begin.resize(local_actions + 1);
  for (ActionId a = 0; a <= local_actions; ++a) {
    data.action_entry_begin[a] = aeb[begin + a] - entry_base;
  }
  const auto copy_range = [&](auto& dst, const auto& src) {
    dst.assign(src.begin() + static_cast<std::ptrdiff_t>(entry_base),
               src.begin() + static_cast<std::ptrdiff_t>(entry_base +
                                                         local_entries));
  };
  copy_range(data.fwd_node, mono.fwd_node());
  copy_range(data.fwd_credit, mono.fwd_credit());
  copy_range(data.bwd_node, mono.bwd_node());
  data.bwd_entry.resize(local_entries);
  for (std::uint64_t e = 0; e < local_entries; ++e) {
    data.bwd_entry[e] = mono.bwd_entry()[entry_base + e] - entry_base;
  }

  data.action_size.assign(
      mono.action_size().begin() + begin,
      mono.action_size().begin() + end);
  data.action_trace_hash.assign(
      mono.action_trace_hash().begin() + begin,
      mono.action_trace_hash().begin() + end);
  data.seeds.assign(mono.seeds().begin(), mono.seeds().end());
  return data;
}

Status ShardedSnapshotWriter::WriteShards(
    const CreditSnapshotView& mono, std::span<const std::uint32_t> global_au,
    std::uint64_t generation, ShardManifest* out_manifest) {
  ShardManifest manifest;
  manifest.generation = generation;
  manifest.num_users = mono.num_users();
  manifest.num_actions = mono.num_actions();
  manifest.graph_fingerprint = mono.graph_fingerprint();
  manifest.log_fingerprint = mono.log_fingerprint();
  manifest.truncation_threshold = mono.truncation_threshold();
  manifest.au.assign(global_au.begin(), global_au.end());
  manifest.range_begin =
      PlanActionRanges(mono.action_entry_begin(), num_shards_);
  if (mono.num_actions() == 0) {
    return Status::InvalidArgument(
        "cannot shard a snapshot with no actions");
  }

  const std::size_t shards = manifest.range_begin.size() - 1;
  // Written-so-far list for the error path: a failure mid-set must not
  // leave a partial generation behind (each WriteSnapshotFile already
  // unlinks its own torn file; this removes the completed siblings).
  const auto unlink_written = [&] {
    for (const std::string& name : manifest.shard_files) {
      std::remove((dir_ + "/" + name).c_str());
    }
  };
  for (std::size_t i = 0; i < shards; ++i) {
    const std::string name = ShardFileName(generation, i);
    const std::string path = dir_ + "/" + name;
    const SnapshotData data = SliceShardData(mono, manifest.range_begin[i],
                                             manifest.range_begin[i + 1]);
    Status status = WriteSnapshotFile(data, path);
    if (status.ok()) {
      auto fingerprint = FingerprintShardFile(path);
      status = fingerprint.status();
      if (status.ok()) {
        manifest.shard_files.push_back(name);
        manifest.shard_fingerprints.push_back(*fingerprint);
      }
    }
    if (!status.ok()) {
      unlink_written();
      return status;
    }
  }
  if (Status status = WriteShardManifest(
          manifest, dir_ + "/" + ManifestFileName(generation));
      !status.ok()) {
    unlink_written();
    return status;
  }
  if (out_manifest != nullptr) *out_manifest = std::move(manifest);
  return Status::OK();
}

Status ShardedSnapshotWriter::WriteFromView(const CreditSnapshotView& view,
                                            std::uint64_t generation,
                                            ShardManifest* out_manifest) {
  // A monolithic snapshot's au section *is* the global A_u.
  return WriteShards(view, view.au(), generation, out_manifest);
}

Status ShardedSnapshotWriter::WriteFromModel(
    const CreditDistributionModel& model, std::uint64_t generation,
    ShardManifest* out_manifest) {
  // The model already holds its credits in the snapshot layout: slice
  // its in-memory view directly. Only a model with commits has to
  // materialize them first.
  if (model.committed_seeds().empty()) {
    return WriteShards(model.frozen(), model.frozen().au(), generation,
                       out_manifest);
  }
  const SnapshotData data = model.ToSnapshotData();
  const CreditSnapshotView view = CreditSnapshotView::InMemory(data);
  return WriteShards(view, view.au(), generation, out_manifest);
}

}  // namespace influmax
