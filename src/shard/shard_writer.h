#ifndef INFLUMAX_SHARD_SHARD_WRITER_H_
#define INFLUMAX_SHARD_SHARD_WRITER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/cd_model.h"
#include "serve/snapshot_view.h"
#include "serve/snapshot_writer.h"
#include "shard/shard_manifest.h"

namespace influmax {

/// Plans contiguous action ranges [begin[i], begin[i+1]) balanced by
/// entry count (the dominant cost of both gain queries and rescans):
/// boundaries advance greedily once a shard reaches its fair share of
/// entries. Deterministic; returns at most min(num_shards, num_actions)
/// non-empty ranges (never an empty shard). `action_entry_begin` is the
/// monolithic snapshot's [A+1] entry CSR.
std::vector<ActionId> PlanActionRanges(
    std::span<const std::uint64_t> action_entry_begin,
    std::size_t num_shards);

/// Slices actions [begin, end) of a monolithic snapshot into a
/// self-contained shard image: actions renumbered to 0..end-begin-1, the
/// slot universe restricted to in-range slots (au/user_offsets local),
/// entry pools copied verbatim with indices rebased. Because the
/// monolithic layout is action-major and deterministic, the slice is
/// byte-identical to a snapshot built directly from
/// ActionLog::RestrictToActions of the same range (tested) — which is
/// exactly why per-shard IncrementalRescan over a restricted log can
/// regenerate any shard independently (docs/sharding.md).
SnapshotData SliceShardData(const CreditSnapshotView& mono, ActionId begin,
                            ActionId end);

/// Partitions one credit snapshot into N action-range shard blobs plus a
/// manifest (docs/sharding.md). The target
/// directory must exist. Writes gen<g>-shard<i>.snap for every planned
/// range, then MANIFEST-<g>; the caller (or GenerationManager) points
/// CURRENT at the manifest to make the generation live.
class ShardedSnapshotWriter {
 public:
  /// `num_shards` is a target; the plan never creates empty shards, so
  /// fewer ranges can result when actions are scarce.
  ShardedSnapshotWriter(std::string dir, std::size_t num_shards)
      : dir_(std::move(dir)), num_shards_(num_shards) {}

  /// Partitions a built model's credits: slices the in-memory view of
  /// its frozen image (CreditDistributionModel::frozen()) — the same
  /// SliceShardData path a file goes through, with no monolithic file
  /// written or re-read. A model with commits is materialized first
  /// (ToSnapshotData), so its shards carry the commits and the seeds.
  Status WriteFromModel(const CreditDistributionModel& model,
                        std::uint64_t generation,
                        ShardManifest* out_manifest = nullptr);

  /// Partitions an existing monolithic snapshot file already opened as
  /// `view` — the `serve_shards split` path: no graph, no log, no
  /// rescan. The global au is lifted from the view's own au section.
  Status WriteFromView(const CreditSnapshotView& view,
                       std::uint64_t generation,
                       ShardManifest* out_manifest = nullptr);

 private:
  Status WriteShards(const CreditSnapshotView& mono,
                     std::span<const std::uint32_t> global_au,
                     std::uint64_t generation, ShardManifest* out_manifest);

  std::string dir_;
  std::size_t num_shards_;
};

}  // namespace influmax

#endif  // INFLUMAX_SHARD_SHARD_WRITER_H_
