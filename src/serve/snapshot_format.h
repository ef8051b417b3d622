#ifndef INFLUMAX_SERVE_SNAPSHOT_FORMAT_H_
#define INFLUMAX_SERVE_SNAPSHOT_FORMAT_H_

#include <cstdint>

namespace influmax {

/// On-disk contract of the credit-store snapshot (see docs/serving.md for
/// the narrative spec). One file, little-endian, not endian-portable —
/// the same convention as the graph/log binary formats.
///
/// Layout:
///   [0, 64)   fixed prelude (all fields 8-byte aligned or padded):
///     u64 magic            "SNAPLFMX"
///     u32 version
///     u32 pad (zero)
///     u64 graph_fingerprint
///     u64 log_fingerprint
///     u32 num_users        U
///     u32 num_actions      A
///     u64 num_slots        S  (== action-log tuples; one per (user, action))
///     u64 num_entries      E  (live UC credit entries)
///     f64 truncation_threshold   (lambda the store was scanned with)
///   [64, ...) sections, in the fixed order of SnapshotSection. Each
///     section is a u64 element count followed by the raw element payload,
///     then zero padding to the next 8-byte boundary, so every u64/double
///     payload is 8-byte aligned within the (page-aligned) mapping.
inline constexpr std::uint64_t kSnapshotMagic = 0x584D464C50414E53ULL;
/// Version 4 stores no quotient pool: a view derives it from kFwdCredit
/// on first use (docs/gain_kernel.md). Versions 2 and 3 stored it as a
/// kFwdQuotient section, version 1 not at all; all three are rejected —
/// rebuild to upgrade.
inline constexpr std::uint32_t kSnapshotVersion = 4;
inline constexpr std::uint64_t kSnapshotPreludeBytes = 64;

/// Section order. Element types and expected counts (in terms of the
/// prelude's U/A/S/E) are fixed per section:
///   kAu              u32[U]    A_u, actions performed per user
///   kUserOffsets     u64[U+1]  user -> slot range (user-major CSR)
///   kSlotAction      u32[S]    action id of each slot, ascending per user
///   kSlotSc          f64[S]    SC baseline Gamma_{S,x}(a) per slot
///   kActionEntryBegin u64[A+1] action -> entry range (entries action-major)
///   kFwdBegin        u64[S]    slot -> first credited-user entry
///   kFwdCount        u32[S]    slot -> credited-user entry count
///   kBwdBegin        u64[S]    slot -> first creditor record
///   kBwdCount        u32[S]    slot -> creditor record count
///   kFwdNode         u32[E]    credited user of each entry
///   kFwdCredit       f64[E]    Gamma_{v,u}(a) of each entry
///   kBwdNode         u32[E]    creditor node of each backward record
///   kBwdEntry        u64[E]    forward-entry index of the same (v, u) pair
///   kActionSize      u32[A]    scanned trace length per action
///   kActionTraceHash u64[A]    order-sensitive hash of the scanned trace
///   kSeeds           u32[*]    seeds committed before the snapshot
enum class SnapshotSection : std::uint32_t {
  kAu = 0,
  kUserOffsets,
  kSlotAction,
  kSlotSc,
  kActionEntryBegin,
  kFwdBegin,
  kFwdCount,
  kBwdBegin,
  kBwdCount,
  kFwdNode,
  kFwdCredit,
  kBwdNode,
  kBwdEntry,
  kActionSize,
  kActionTraceHash,
  kSeeds,
  kNumSections,
};

}  // namespace influmax

#endif  // INFLUMAX_SERVE_SNAPSHOT_FORMAT_H_
