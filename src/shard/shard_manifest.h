#ifndef INFLUMAX_SHARD_SHARD_MANIFEST_H_
#define INFLUMAX_SHARD_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "serve/snapshot_view.h"

namespace influmax {

/// On-disk contract of a sharded credit snapshot (docs/sharding.md).
///
/// A sharded snapshot is a directory holding, per generation g:
///   MANIFEST-<g>            this manifest (BinaryWriter container)
///   gen<g>-shard<i>.snap    one vanilla credit snapshot per shard
/// plus a CURRENT file naming the live manifest. Each shard blob is a
/// self-contained snapshot_format.h file over the contiguous global
/// action range [range_begin[i], range_begin[i+1]), with actions
/// renumbered to local ids 0..n-1 and the slot universe restricted
/// accordingly — a plain CreditSnapshotView opens and fully validates
/// it. What a shard blob *cannot* carry is the global A_u array (its au
/// section must match its own slot CSR to validate), and Theorem 3's
/// gain formula divides by global A_u; the manifest therefore records
/// the global au, and OpenShardedSnapshot makes it the divisor of every
/// opened view (CreditSnapshotView::DivideGainsBy).
///
/// Manifest layout after BinaryWriter's magic + version:
///   u64 generation
///   u32 num_users, u32 num_actions        global universe
///   u64 graph_fingerprint, u64 log_fingerprint   of the full inputs
///   f64 truncation_threshold
///   vec<u32> range_begin   [N+1] shard action ranges, validated strictly
///                          ascending from 0 to num_actions (shards are
///                          non-empty, sorted, non-overlapping, covering)
///   vec<u32> au            [num_users] global A_u
///   vec<u64> shard_fingerprints  [N] FingerprintShardFile of each blob
///   u64 N, then N x vec<char>    relative shard file names
inline constexpr std::uint64_t kShardManifestMagic = 0x5453464D44524853ULL;
inline constexpr std::uint32_t kShardManifestVersion = 1;

/// Upper bound on shards in one manifest; a corrupt count past it is
/// rejected before any allocation.
inline constexpr std::uint64_t kMaxShards = 4096;

struct ShardManifest {
  std::uint64_t generation = 1;
  NodeId num_users = 0;
  ActionId num_actions = 0;
  std::uint64_t graph_fingerprint = 0;
  std::uint64_t log_fingerprint = 0;
  double truncation_threshold = 0.0;
  std::vector<ActionId> range_begin;             // [N+1]
  std::vector<std::uint32_t> au;                 // [num_users], global
  std::vector<std::uint64_t> shard_fingerprints;  // [N]
  std::vector<std::string> shard_files;          // [N], relative to dir

  std::size_t num_shards() const { return shard_files.size(); }
};

/// Canonical file names inside a generation directory.
std::string ManifestFileName(std::uint64_t generation);
std::string ShardFileName(std::uint64_t generation, std::size_t shard);

/// Cheap whole-file fingerprint of a shard blob: file size chained with
/// the 64-byte snapshot prelude (magic, fingerprints, counts, lambda).
/// Catches truncated, swapped, or re-built blobs at manifest-open time
/// without reading the payload; deep payload corruption is caught by
/// CreditSnapshotView::Open's full validation.
Result<std::uint64_t> FingerprintShardFile(const std::string& path);

/// Serializes `manifest` (validated first — writing an inconsistent
/// manifest is refused as InvalidArgument).
Status WriteShardManifest(const ShardManifest& manifest,
                          const std::string& path);

/// Reads and validates a manifest. Structural failures (bad ranges,
/// count mismatches) are Corruption with the byte offset of the
/// offending section, PR 2's snapshot-view convention.
Result<ShardManifest> ReadShardManifest(const std::string& path);

/// The manifest-level range validation (also run by read/write): N >= 1,
/// range_begin strictly ascending from 0 to num_actions, au sized to
/// num_users, per-shard vectors sized to N.
Status ValidateShardManifest(const ShardManifest& manifest);

/// The shards one process opens: [begin, end) of a manifest's shards.
/// The default is the whole generation, whatever its shard count, so a
/// manager that refreshes onto a generation with more or fewer shards
/// still opens every one of them; a fixed range names global shard
/// numbers and fails to open a generation that lacks them.
struct ShardRange {
  static constexpr std::size_t kLastShard = ~std::size_t{0};

  std::size_t begin = 0;
  std::size_t end = kLastShard;  ///< kLastShard: through the last shard

  static ShardRange Whole() { return {}; }
  static ShardRange One(std::size_t shard) { return {shard, shard + 1}; }
  bool whole() const { return begin == 0 && end == kLastShard; }
};

/// An opened sharded snapshot: the manifest plus one validated
/// CreditSnapshotView per opened shard. Immutable after open; shared
/// freely across threads (per-session state lives in ShardRouter). The
/// views divide their gains by manifest.au, which they span: move the
/// snapshot whole, never its views without the manifest.
struct ShardedSnapshot {
  std::string dir;
  ShardManifest manifest;
  /// Global number of the first opened shard: views[j] is shard
  /// first_shard + j. Only opened shards have a view — a process serving
  /// one shard maps one blob.
  std::size_t first_shard = 0;
  std::vector<CreditSnapshotView> views;

  std::size_t end_shard() const { return first_shard + views.size(); }
  /// Every shard of the manifest is open: what an in-process router and
  /// an ingest need (a subset would sum partial gains).
  bool whole() const {
    return first_shard == 0 && views.size() == manifest.num_shards();
  }
  /// Shard i's view by global shard number; CHECK-fails when shard i is
  /// not open.
  const CreditSnapshotView& view(std::size_t i) const;
  /// Bytes mapped by the opened views.
  std::uint64_t mapped_bytes() const;
  /// Heap bytes of the views' quotient pools derived so far: each is
  /// derived under the global A_u by the first engine over its shard —
  /// the first ShardRouter, or a shard server at start-up — and shared
  /// by every session's engines.
  std::uint64_t pool_bytes() const;
};

/// Opens `manifest_path` and the shard blobs of `range` it names
/// (relative to the manifest's directory). Only those blobs are
/// fingerprinted, mapped and validated; the others are never touched.
/// Each opened blob is checked against the manifest: file fingerprint,
/// the full CreditSnapshotView::Open validation, user universe, action
/// count == range width, lambda, graph fingerprint, and global A_u >=
/// local A_u. Opened shards must agree on the frozen seed set; shards
/// in different processes cannot see each other, so across a fleet the
/// client compares the seeds and A_u of every server's hello
/// (RemoteShardRouter). A range the generation does not have — a
/// server for shard 3 and a 2-shard generation — is FailedPrecondition,
/// not Corruption: the generation is valid, just not servable here.
Result<ShardedSnapshot> OpenShardedSnapshot(
    const std::string& manifest_path, ShardRange range = ShardRange::Whole());

/// Wraps `view`, an image held in memory (the live model's), as a whole
/// 1-shard generation for a ShardRouter: no directory, file or file
/// fingerprint, and the view's own A_u as the global one. What `view`
/// spans must outlive the result.
ShardedSnapshot InMemoryShardedSnapshot(CreditSnapshotView view);

/// CURRENT pointer of a generation directory: a one-line file naming the
/// live manifest. WriteCurrent replaces it atomically (temp + rename) so
/// a reader never observes a partial pointer.
Result<std::string> ReadCurrentManifestName(const std::string& dir);
Status WriteCurrentManifestName(const std::string& dir,
                                const std::string& manifest_name);

}  // namespace influmax

#endif  // INFLUMAX_SHARD_SHARD_MANIFEST_H_
