#ifndef INFLUMAX_SHARD_RECOVERY_H_
#define INFLUMAX_SHARD_RECOVERY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace influmax {

/// Crash recovery and quarantine for a generation directory
/// (docs/durability.md).
///
/// The swap protocol makes the CURRENT rename the single commit point:
/// blobs and manifest are fsynced before it, the directory after it. A
/// crash anywhere in the build->flip sequence therefore leaves exactly
/// one of two durable states — CURRENT naming the old generation (with
/// possible orphan files from the aborted new one) or CURRENT naming
/// the fully-durable new generation. RecoverGenerationDir restores the
/// directory to a serveable state from either, and also repairs damage
/// the protocol cannot prevent (hand-edited or bit-rotted files) by
/// falling back to the newest generation that still fully validates.

/// What one recovery pass did.
struct RecoveryReport {
  std::string current_manifest;  ///< manifest CURRENT names after recovery
  std::uint64_t generation = 0;  ///< its generation number
  bool current_rewritten = false;      ///< CURRENT had to be repointed
  std::vector<std::string> removed;      ///< deleted orphans (bare names)
  std::vector<std::string> quarantined;  ///< QUARANTINE-* dirs filled
};

/// Scans `dir` and returns it to a fully-valid serving state:
///  1. deletes `*.tmp` leftovers (CURRENT.tmp, an older writer's
///     .mono-<g>.tmp, and any pre-unlink-fix partial temp);
///  2. fully validates every MANIFEST-<g> (OpenShardedSnapshot: blob
///     fingerprints, structural checks, frozen-seed agreement) and
///     quarantines invalid generations;
///  3. keeps CURRENT if its target validates, otherwise repoints it
///     (durably) at the newest fully-valid generation;
///  4. deletes blob files no surviving manifest references (orphans of
///     a crash between blob writes and the manifest write).
/// Errors only when no fully-valid generation exists (or the scan
/// itself fails); pre-existing QUARANTINE-* directories are ignored.
Result<RecoveryReport> RecoverGenerationDir(const std::string& dir);

/// Moves `files` (bare names inside `dir`, missing ones skipped) into
/// `dir`/QUARANTINE-<generation>-<reason>/ so the bad generation stays
/// inspectable but invisible to scans and MaxGenerationOnDisk. Returns
/// the quarantine directory's bare name; counts gen.quarantined.
Result<std::string> QuarantineGenerationFiles(
    const std::string& dir, std::uint64_t generation, std::string_view reason,
    std::span<const std::string> files);

/// Quarantines MANIFEST-<generation> plus its gen<generation>-* blobs,
/// except blobs some other readable manifest still references (newer
/// generations legally re-reference untouched shards by name).
Status QuarantineGeneration(const std::string& dir, std::uint64_t generation,
                            std::string_view reason);

}  // namespace influmax

#endif  // INFLUMAX_SHARD_RECOVERY_H_
