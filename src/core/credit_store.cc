#include "core/credit_store.h"

#include <algorithm>
#include <cstring>

namespace influmax {

void RowArena::AddChunk(std::size_t entries) {
  chunks_.emplace_back(std::make_unique<CreditEntry[]>(entries), entries);
  row_begin_ = cursor_ = chunks_.back().first.get();
  chunk_end_ = cursor_ + entries;
}

void RowArena::Spill() {
  // The open row outgrew its chunk: move it (contiguously) to the front
  // of a fresh chunk at least twice the old one and big enough that the
  // row fills at most half of it. Finished rows stay where they are —
  // only the open row ever relocates, so concurrent readers of finished
  // rows are never invalidated.
  const std::size_t row_size = static_cast<std::size_t>(cursor_ - row_begin_);
  const std::size_t grown = std::max(
      {kMinChunkEntries, chunks_.back().second * 2, row_size * 2});
  CreditEntry* old_row = row_begin_;
  AddChunk(grown);
  if (row_size > 0) {
    std::memcpy(row_begin_, old_row, row_size * sizeof(CreditEntry));
    cursor_ = row_begin_ + row_size;
  }
}

void RowArena::Reset() {
  if (chunks_.empty()) return;
  // Keep only the largest chunk: the steady-state high-water mark.
  std::size_t best = 0;
  for (std::size_t i = 1; i < chunks_.size(); ++i) {
    if (chunks_[i].second > chunks_[best].second) best = i;
  }
  if (best != 0) std::swap(chunks_[0], chunks_[best]);
  chunks_.resize(1);
  row_begin_ = cursor_ = chunks_[0].first.get();
  chunk_end_ = cursor_ + chunks_[0].second;
}

std::uint64_t ActionCreditTable::ApproxMemoryBytes() const {
  return index_.ApproxMemoryBytes() + credits_.capacity() * sizeof(double) +
         forward_.ApproxMemoryBytes() + backward_.ApproxMemoryBytes();
}

}  // namespace influmax
