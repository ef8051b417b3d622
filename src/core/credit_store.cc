#include "core/credit_store.h"

namespace influmax {

std::uint64_t ActionCreditTable::ApproxMemoryBytes() const {
  return index_.ApproxMemoryBytes() + credits_.capacity() * sizeof(double) +
         forward_.ApproxMemoryBytes() + backward_.ApproxMemoryBytes();
}

}  // namespace influmax
