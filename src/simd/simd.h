#ifndef ROTIND_SIMD_SIMD_H_
#define ROTIND_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "src/core/status.h"

namespace rotind {
namespace simd {

/// The SIMD kernel layer: runtime-dispatched implementations of the hot
/// loops (LB_Keogh accumulation, the fused LB_Improved projection pass,
/// early-abandoning squared ED, envelope merge, DTW band row update), each
/// in a portable scalar tier and an AVX2 tier.
///
/// Exactness contract: every AVX2 kernel is BIT-IDENTICAL to its scalar
/// reference on the same inputs, including abandonment points (step
/// accounting). This is possible because no kernel reassociates a scalar
/// accumulation chain:
///  * the blocked ED kernels vectorize ACROSS candidates — each lane
///    accumulates its own candidate's terms in time order, exactly the
///    scalar per-candidate sum;
///  * LB_Keogh terms max(q-U, 0) + max(L-q, 0) are elementwise equal to
///    the branchy scalar terms (L <= U means at most one max is positive,
///    and adding a +0.0 term never changes a non-negative accumulator), so
///    the serial accumulate/check loop consumes vector-computed terms
///    without reordering;
///  * envelope merge and the DTW row's min/cost precompute are elementwise
///    (min/max operand order is chosen so ties return the same operand the
///    std::min/std::max reference returns);
///  * no FMA contraction: the AVX2 translation unit is built with
///    -ffp-contract=off and explicit mul+add intrinsics.
/// tests/simd_kernels_test.cc enforces the contract bit-for-bit across
/// tiers for every kernel, sweeping odd lengths and tails.
///
/// Layering: distance/envelope/search -> simd -> core (enforced by
/// rotind_lint), and intrinsics are forbidden outside src/simd/.

/// Candidates scored per blocked-kernel pass. Matches
/// FlatDataset::kTileLanes (static_assert'd at the call sites).
inline constexpr std::size_t kBlockLanes = 8;

/// Dispatch tiers, lowest to highest.
enum class Tier { kScalar, kAvx2 };

/// The dispatched kernel set. Function pointers, resolved once at startup:
/// indirect-call cost is noise against the O(n) loops behind each entry.
struct KernelTable {
  /// Early-abandoning squared LB_Keogh (paper Table 5) of series `s`
  /// against envelope [lower, upper]: accumulates (s_i-U_i)^2 / (s_i-L_i)^2
  /// for points outside the envelope, returning +infinity as soon as the
  /// accumulator exceeds `sq_limit` and the exact sum otherwise.
  /// `*examined` receives the number of points consumed (abandon index + 1,
  /// or n) — the caller's step charge. sq_limit = +infinity never abandons
  /// (the full-LB_Keogh case).
  double (*lb_keogh_sq)(const double* s, const double* upper,
                        const double* lower, std::size_t n, double sq_limit,
                        std::size_t* examined);

  /// LB_Improved pass 1: identical accumulation, abandonment, and return
  /// semantics to lb_keogh_sq (bit-for-bit, including *examined), fused
  /// with the envelope projection proj[i] = clamp(s_i, L_i, U_i) — U_i when
  /// s_i > U_i, L_i when s_i < L_i, s_i itself otherwise (ties keep s_i's
  /// bits, so a -0.0 point inside a +0.0 envelope stays -0.0). On return,
  /// proj[0 .. *examined) is valid; entries past an abandonment point are
  /// unspecified (the caller only reads proj when the pass survived).
  double (*lb_keogh_proj_sq)(const double* s, const double* upper,
                             const double* lower, double* proj, std::size_t n,
                             double sq_limit, std::size_t* examined);

  /// Full squared ED of one query rotation against kBlockLanes SoA-tiled
  /// candidates: out_sq[l] = sum_t (q[t] - tile[t*kBlockLanes + l])^2,
  /// accumulated in time order per lane. `tile` must be 64-byte aligned
  /// (FlatDataset::tile).
  void (*ed_block_full)(const double* q, const double* tile, std::size_t n,
                        double* out_sq);

  /// Envelope merge (H-Merge): upper[i] = max(upper[i], other_upper[i]),
  /// lower[i] = min(lower[i], other_lower[i]).
  void (*env_merge)(double* upper, double* lower, const double* other_upper,
                    const double* other_lower, std::size_t n);

  /// Widen an envelope by one series: upper[i] = max(upper[i], s[i]),
  /// lower[i] = min(lower[i], s[i]).
  void (*env_merge_series)(double* upper, double* lower, const double* s,
                           std::size_t n);

  /// One row (i > 0) of the rolling-array Sakoe-Chiba band DP: for j in
  /// [j_lo, j_hi], curr[j] = min(prev[j], curr[j-1] if j>0,
  /// prev[j-1] if j>0) + (qi - c[j])^2. Returns the row minimum. `scratch`
  /// must hold at least j_hi + 1 doubles. Row 0 (the base case) stays with
  /// the caller.
  double (*dtw_row)(double qi, const double* c, const double* prev,
                    double* curr, std::size_t j_lo, std::size_t j_hi,
                    double* scratch);
};

/// Whether `tier` can run on this machine/build (kScalar always can).
[[nodiscard]] bool TierAvailable(Tier tier);

/// Parses a ROTIND_SIMD override value: "scalar" and "avx2" name tiers,
/// anything else is a typed kInvalidArgument naming the accepted values.
[[nodiscard]] StatusOr<Tier> TierFromName(const char* name);

/// Validates the ROTIND_SIMD environment override without resolving the
/// active tier: OK when the variable is unset or names a known tier, the
/// TierFromName error otherwise. The CLI calls this first thing in main()
/// and maps a failure to its usage-error exit code (2); library users who
/// skip it hit the same check fatally at first kernel dispatch.
[[nodiscard]] Status ValidateEnvOverride();

/// The tier selected once at first use: the best available, overridable
/// with ROTIND_SIMD=scalar|avx2 (an unavailable request degrades to
/// scalar; ActiveTierName() reports what actually runs). An unknown
/// ROTIND_SIMD value is a hard startup error (stderr + abort), never a
/// silent fallback — validate early with ValidateEnvOverride().
[[nodiscard]] Tier ActiveTier();

/// Stable lowercase tier name ("scalar", "avx2") for logs and bench JSON.
[[nodiscard]] const char* TierName(Tier tier);
[[nodiscard]] const char* ActiveTierName();

/// The kernel table for ActiveTier().
[[nodiscard]] const KernelTable& Kernels();

/// The kernel table for an explicit tier (parity tests). Requesting an
/// unavailable tier returns the scalar table.
[[nodiscard]] const KernelTable& KernelsFor(Tier tier);

}  // namespace simd
}  // namespace rotind

#endif  // ROTIND_SIMD_SIMD_H_
