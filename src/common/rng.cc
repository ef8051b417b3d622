#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace influmax {

double Rng::NextExponential(double mean) {
  assert(mean > 0.0);
  // Inverse transform; 1 - U in (0, 1] avoids log(0).
  return -mean * std::log(1.0 - NextDouble());
}

std::uint64_t Rng::NextZipf(double alpha, std::uint64_t max_value) {
  assert(alpha > 1.0);
  assert(max_value >= 1);
  // Continuous Pareto inverse transform truncated to [1, max_value + 1).
  const double exponent = 1.0 / (1.0 - alpha);
  for (;;) {
    double u = NextDouble();
    double x = std::pow(1.0 - u, exponent);  // Pareto(alpha) on [1, inf)
    if (x < static_cast<double>(max_value) + 1.0) {
      return static_cast<std::uint64_t>(x);
    }
  }
}

}  // namespace influmax
