#include "serve/snapshot_view.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "serve/snapshot_format.h"

namespace influmax {
namespace {

/// Bounds-checked typed cursor over the mapped bytes. Every failure
/// carries the byte offset so corrupt snapshots are diagnosable without a
/// hex dump. Alignment of 8-byte payloads is guaranteed by the writer
/// (sections are padded) and re-checked here before any pointer is cast.
class SectionCursor {
 public:
  SectionCursor(const std::byte* data, std::size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  const Status& status() const { return status_; }
  std::uint64_t offset() const { return offset_; }

  std::uint32_t ReadU32() { return ReadScalar<std::uint32_t>(); }
  std::uint64_t ReadU64() { return ReadScalar<std::uint64_t>(); }
  double ReadDouble() { return ReadScalar<double>(); }

  /// Reads one section: u64 element count (must equal `expected_count`
  /// unless expected_count is kAnyCount, in which case it only must fit
  /// `max_count`), the payload, and the trailing 8-byte-boundary padding.
  template <typename T>
  std::span<const T> ReadSection(const char* name,
                                 std::uint64_t expected_count,
                                 std::uint64_t max_count) {
    const std::uint64_t count = ReadU64();
    if (!status_.ok()) return {};
    if (expected_count != kAnyCount && count != expected_count) {
      Fail("section " + std::string(name) + " has " +
           std::to_string(count) + " elements, header implies " +
           std::to_string(expected_count));
      return {};
    }
    if (count > max_count) {
      Fail("section " + std::string(name) + " element count " +
           std::to_string(count) + " exceeds sanity limit");
      return {};
    }
    // Divide instead of multiplying: `count * sizeof(T)` could wrap for a
    // crafted count and slip past the bounds check.
    if (count > (size_ - offset_) / sizeof(T)) {
      Fail("section " + std::string(name) + " payload of " +
           std::to_string(count) + " elements overruns the file");
      return {};
    }
    const std::uint64_t bytes = count * sizeof(T);
    if (offset_ % alignof(T) != 0) {
      Fail("section " + std::string(name) + " payload is misaligned");
      return {};
    }
    const auto* ptr = reinterpret_cast<const T*>(data_ + offset_);
    offset_ += bytes;
    const std::uint64_t rem = offset_ % 8;
    if (rem != 0) {
      if (8 - rem > size_ - offset_) {
        Fail("section " + std::string(name) + " padding overruns the file");
        return {};
      }
      offset_ += 8 - rem;
    }
    return {ptr, count};
  }

  void Fail(const std::string& message) {
    if (status_.ok()) {
      status_ = Status::Corruption("snapshot '" + path_ +
                                   "': " + message + " (at byte offset " +
                                   std::to_string(offset_) + ")");
    }
  }

  static constexpr std::uint64_t kAnyCount = ~0ULL;

 private:
  template <typename T>
  T ReadScalar() {
    if (!status_.ok()) return T{};
    if (sizeof(T) > size_ - offset_) {
      Fail("truncated: wanted " + std::to_string(sizeof(T)) + " bytes");
      return T{};
    }
    T value;
    std::memcpy(&value, data_ + offset_, sizeof(T));
    offset_ += sizeof(T);
    return value;
  }

  const std::byte* data_;
  std::uint64_t size_;
  std::uint64_t offset_ = 0;
  std::string path_;
  Status status_;
};

}  // namespace

std::uint64_t CreditSnapshotView::SlotOf(NodeId u, ActionId a) const {
  const ActionId* begin = slot_action_.data() + user_offsets_[u];
  const ActionId* end = slot_action_.data() + user_offsets_[u + 1];
  const ActionId* it = std::lower_bound(begin, end, a);
  if (it == end || *it != a) return kNoSlot;
  return static_cast<std::uint64_t>(it - slot_action_.data());
}

Result<CreditSnapshotView> CreditSnapshotView::Open(const std::string& path) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();

  CreditSnapshotView view;
  view.file_ = std::move(file).value();
  SectionCursor cursor(view.file_.data(), view.file_.size(), path);

  const std::uint64_t magic = cursor.ReadU64();
  if (cursor.status().ok() && magic != kSnapshotMagic) {
    return Status::Corruption("'" + path + "' is not a credit snapshot "
                              "(bad magic)");
  }
  const std::uint32_t version = cursor.ReadU32();
  if (cursor.status().ok() && version != kSnapshotVersion) {
    return Status::Corruption("snapshot '" + path +
                              "': unsupported version " +
                              std::to_string(version));
  }
  cursor.ReadU32();  // prelude padding
  view.graph_fingerprint_ = cursor.ReadU64();
  view.log_fingerprint_ = cursor.ReadU64();
  view.num_users_ = cursor.ReadU32();
  view.num_actions_ = cursor.ReadU32();
  view.num_slots_ = cursor.ReadU64();
  view.num_entries_ = cursor.ReadU64();
  view.truncation_threshold_ = cursor.ReadDouble();
  INFLUMAX_RETURN_IF_ERROR(cursor.status());
  if (cursor.offset() != kSnapshotPreludeBytes) {
    return Status::Internal("snapshot prelude parser drifted from format");
  }

  const std::uint64_t U = view.num_users_;
  const std::uint64_t A = view.num_actions_;
  const std::uint64_t S = view.num_slots_;
  const std::uint64_t E = view.num_entries_;
  view.au_ = cursor.ReadSection<std::uint32_t>("au", U, U);
  view.user_offsets_ =
      cursor.ReadSection<std::uint64_t>("user_offsets", U + 1, U + 1);
  view.slot_action_ = cursor.ReadSection<ActionId>("slot_action", S, S);
  view.slot_sc_ = cursor.ReadSection<double>("slot_sc", S, S);
  view.action_entry_begin_ =
      cursor.ReadSection<std::uint64_t>("action_entry_begin", A + 1, A + 1);
  view.fwd_begin_ = cursor.ReadSection<std::uint64_t>("fwd_begin", S, S);
  view.fwd_count_ = cursor.ReadSection<std::uint32_t>("fwd_count", S, S);
  view.bwd_begin_ = cursor.ReadSection<std::uint64_t>("bwd_begin", S, S);
  view.bwd_count_ = cursor.ReadSection<std::uint32_t>("bwd_count", S, S);
  view.fwd_node_ = cursor.ReadSection<NodeId>("fwd_node", E, E);
  view.fwd_credit_ = cursor.ReadSection<double>("fwd_credit", E, E);
  view.fwd_quotient_ = cursor.ReadSection<double>("fwd_quotient", E, E);
  view.bwd_node_ = cursor.ReadSection<NodeId>("bwd_node", E, E);
  view.bwd_entry_ = cursor.ReadSection<std::uint64_t>("bwd_entry", E, E);
  view.action_size_ = cursor.ReadSection<std::uint32_t>("action_size", A, A);
  view.action_trace_hash_ =
      cursor.ReadSection<std::uint64_t>("action_trace_hash", A, A);
  view.seeds_ =
      cursor.ReadSection<NodeId>("seeds", SectionCursor::kAnyCount, U);
  INFLUMAX_RETURN_IF_ERROR(cursor.status());

  // Structural validation, once at load time, so the (unchecked) query
  // hot path can trust every index it follows. O(U + S + E).
  const auto uo = view.user_offsets_;
  if (uo[0] != 0 || uo[U] != S) {
    cursor.Fail("user_offsets do not cover the slot range");
    return cursor.status();
  }
  for (std::uint64_t u = 0; u < U; ++u) {
    if (uo[u + 1] < uo[u] || uo[u + 1] - uo[u] != view.au_[u]) {
      cursor.Fail("user_offsets disagree with au at user " +
                  std::to_string(u));
      return cursor.status();
    }
    for (std::uint64_t s = uo[u]; s + 1 < uo[u + 1]; ++s) {
      if (view.slot_action_[s] >= view.slot_action_[s + 1]) {
        cursor.Fail("slot actions not ascending for user " +
                    std::to_string(u));
        return cursor.status();
      }
    }
  }
  const auto aeb = view.action_entry_begin_;
  if (aeb[0] != 0 || aeb[A] != E) {
    cursor.Fail("action_entry_begin does not cover the entry range");
    return cursor.status();
  }
  for (std::uint64_t a = 0; a < A; ++a) {
    if (aeb[a + 1] < aeb[a]) {
      cursor.Fail("action_entry_begin not monotonic at action " +
                  std::to_string(a));
      return cursor.status();
    }
  }
  for (std::uint64_t s = 0; s < S; ++s) {
    const ActionId a = view.slot_action_[s];
    if (a >= A) {
      cursor.Fail("slot " + std::to_string(s) + " references action " +
                  std::to_string(a) + " out of range");
      return cursor.status();
    }
    // Adjacency ranges must stay inside their action's entry slice, so
    // every index the engine follows stays in bounds. A backward record
    // is proven to lie in its action's slice only, not in its
    // creditor's row; the engine, which reads it relative to that row,
    // skips a record that falls outside.
    const std::uint64_t fb = view.fwd_begin_[s];
    const std::uint64_t fc = view.fwd_count_[s];
    if (fb < aeb[a] || fb > aeb[a + 1] || fc > aeb[a + 1] - fb) {
      cursor.Fail("forward range of slot " + std::to_string(s) +
                  " leaves its action slice");
      return cursor.status();
    }
    const std::uint64_t bb = view.bwd_begin_[s];
    const std::uint64_t bc = view.bwd_count_[s];
    if (bb > E || bc > E - bb) {
      cursor.Fail("backward range of slot " + std::to_string(s) +
                  " out of bounds");
      return cursor.status();
    }
    for (std::uint64_t j = bb; j < bb + bc; ++j) {
      const std::uint64_t e = view.bwd_entry_[j];
      if (e < aeb[a] || e >= aeb[a + 1]) {
        cursor.Fail("backward record " + std::to_string(j) +
                    " references entry outside its action slice");
        return cursor.status();
      }
    }
  }
  for (std::uint64_t e = 0; e < E; ++e) {
    if (view.fwd_node_[e] >= U || view.bwd_node_[e] >= U) {
      cursor.Fail("entry " + std::to_string(e) +
                  " references a user out of range");
      return cursor.status();
    }
    // The derived quotient pool must bit-equal the on-the-fly division —
    // IEEE division is correctly rounded, so the writer's bits are the
    // only valid ones. Compared bitwise (not ==) so a NaN smuggled into
    // either side is rejected rather than trivially unequal-but-ignored.
    const double expected =
        view.fwd_credit_[e] / view.au_[view.fwd_node_[e]];
    if (std::bit_cast<std::uint64_t>(view.fwd_quotient_[e]) !=
        std::bit_cast<std::uint64_t>(expected)) {
      cursor.Fail("entry " + std::to_string(e) +
                  " quotient disagrees with fwd_credit / au");
      return cursor.status();
    }
  }
  for (NodeId seed : view.seeds_) {
    if (seed >= U) {
      cursor.Fail("seed id " + std::to_string(seed) + " out of range");
      return cursor.status();
    }
  }
  return view;
}

}  // namespace influmax
