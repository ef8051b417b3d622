#ifndef INFLUMAX_CORE_FIXED_GAIN_H_
#define INFLUMAX_CORE_FIXED_GAIN_H_

#include <bit>
#include <cmath>
#include <cstdint>

namespace influmax {

/// Fixed-point gain arithmetic (docs/gain_kernel.md). Theorem 3 makes a
/// marginal gain a sum of non-negative per-slot terms
/// mg_a(x) * (1 - SC(x, a)), with mg_a(x) = 1/A_x + sum_u credit / A_u.
/// Every such sum in the repo — the live model, the snapshot engine, the
/// shard router, a shard server's partials, the remote client — is an
/// integer sum at scale 2^-48, so it is associative: any order,
/// partition, thread count or SIMD width gives the same bits. The only
/// real-valued steps are the roundings below, each a pure function of
/// its operands:
///
///  * each quotient credit / A_u, and 1/A_x, is rounded once (ToFixed);
///  * a slot's mg_a(x) is the exact int64 sum of those quotients;
///  * the slot's term is rounded once from mg_a(x) * (1 - SC) (SlotTerm);
///  * terms add exactly into a GainAccum; FromFixed rounds the total once.

/// A quotient, a slot's mg_a(x) or a slot term, in units of 2^-48.
using FixedGain = std::int64_t;
/// A sum of slot terms: wide enough that no gain can overflow it.
using GainAccum = __int128;

inline constexpr double kGainScale = 0x1p48;

/// Headroom of a FixedGain: 2^63 units of 2^-48 is 2^15. The snapshot
/// writer and CreditSnapshotView::Open refuse a slot whose mg_a(x) would
/// reach it.
inline constexpr double kGainHeadroom = 0x1p15;

/// ToFixed(v) for -8 <= v < 8 — any other v yields an unspecified value,
/// never undefined behaviour. Adding 1.5 * 2^4 lands in [2^4, 2^5),
/// where doubles are spaced 2^-48, so the addition itself rounds v to
/// the fixed-point grid (ties to even, in the default rounding mode) and
/// the grid index sits in the sum's low mantissa bits. Branch-free, for
/// loops that check the range themselves.
inline FixedGain ToFixedSmall(double v) {
  constexpr double kShift = 0x1.8p4;
  return std::bit_cast<std::int64_t>(v + kShift) -
         std::bit_cast<std::int64_t>(kShift);
}

/// ToFixed's rare path, kept out of line and marked cold so the hot loops
/// that round keep their accumulators in registers. llrint has no
/// undefined behaviour, whatever v is.
[[gnu::cold, gnu::noinline]] inline FixedGain LargeToFixed(double v) {
  return std::llrint(v * kGainScale);
}

/// The FixedGain nearest to v, ties to even — std::llrint(v * 2^48),
/// without a library call for the quotients below 8 that real credits
/// give. Requires |v| < kGainHeadroom.
inline FixedGain ToFixed(double v) {
  if (v >= 0.0 && v < 8.0) [[likely]] return ToFixedSmall(v);
  return LargeToFixed(v);
}

/// ToDouble's rare path, out of line like LargeToFixed.
[[gnu::cold, gnu::noinline]] inline double LargeToDouble(GainAccum v) {
  return static_cast<double>(v);
}

/// The double nearest to v: one instruction when v fits an int64 (a
/// compiler that sees an int64 argument drops the test), a library call
/// otherwise.
inline double ToDouble(GainAccum v) {
  const auto narrow = static_cast<std::int64_t>(v);
  if (narrow == v) [[likely]] return static_cast<double>(narrow);
  return LargeToDouble(v);
}

/// The double nearest to a fixed-point sum.
inline double FromFixed(GainAccum v) {
  return ToDouble(v) * (1.0 / kGainScale);
}

/// One slot's term mg_a(x) * (1 - SC), rounded once. SC is a share of
/// credit, so (1 - SC) is clamped to [0, 1]: an SC that rounding pushed
/// past 1 contributes nothing instead of a negative term, and the term
/// never exceeds mga.
inline FixedGain SlotTerm(GainAccum mga, double sc) {
  double keep = 1.0 - sc;
  if (!(keep > 0.0)) return 0;
  if (keep > 1.0) keep = 1.0;
  // Scaling by 2^-48 is exact, so this rounds mga * keep once.
  return ToFixed(ToDouble(mga) * keep * (1.0 / kGainScale));
}

}  // namespace influmax

#endif  // INFLUMAX_CORE_FIXED_GAIN_H_
