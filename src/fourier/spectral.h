#ifndef ROTIND_FOURIER_SPECTRAL_H_
#define ROTIND_FOURIER_SPECTRAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"

namespace rotind {

/// Rotation-invariant spectral signatures (paper Section 4.2 and refs
/// [4][38]).
///
/// A circular shift of a series multiplies each DFT coefficient by a unit
/// phase, leaving magnitudes unchanged. By Parseval,
///
///   ED^2(Q_rot_j, C) = (1/n) * sum_k |Q_k e^{i phi_k} - C_k|^2
///                   >= (1/n) * sum_{k in S} (|Q_k| - |C_k|)^2
///
/// for ANY subset S of bins and ANY rotation j. The signature stores
/// w_k * |X_k| with w_k = sqrt(weight_k / n) (weight 2 for conjugate-pair
/// bins of a real signal, 1 for DC/Nyquist), so the plain L2 distance
/// between two signatures:
///   * lower-bounds RED(Q, C)  (exactness: no false dismissals), and
///   * is a true metric on signature space (enables VP-tree pruning).
struct SpectralSignature {
  std::vector<double> values;

  std::size_t dims() const { return values.size(); }
};

/// Builds the D-dimensional magnitude signature of `s` using bins
/// k = 1 .. D (bin 0 is skipped: z-normalised series have zero DC, and
/// keeping low frequencies first retains most energy, paper Section 5.4).
///
/// CONTRACT: `dims` is CLAMPED to n/2 (the conjugate-pair weighting is only
/// valid for D <= n/2), so the returned signature may have fewer dimensions
/// than requested. On a heterogeneous-length dataset this produces
/// mixed-dimensionality signatures that are NOT mutually comparable —
/// callers building signature sets over many series must either guarantee a
/// uniform length or use MakeSpectralSignatureChecked, which makes the
/// clamp an error instead. Requires n >= 2.
SpectralSignature MakeSpectralSignature(const Series& s, std::size_t dims);

/// Validated variant: kInvalidArgument when n < 2 or `dims` would be
/// clamped (dims > n/2) — the footgun path that silently produced
/// mixed-dimensionality signature sets. Never clamps.
[[nodiscard]]
StatusOr<SpectralSignature> MakeSpectralSignatureChecked(const Series& s,
                                                         std::size_t dims);

/// L2 distance between signatures; a lower bound on RED(Q, C) and, for DTW
/// callers, NOT a bound (see search/signature_index.h for the DTW path).
/// Charges `dims` steps.
///
/// Signatures of differing dimensionality are incomparable; passing them is
/// a hard error on ALL build types (message + abort — never the silent heap
/// over-read the old NDEBUG assert allowed). Use SignatureDistanceChecked
/// when the mismatch must be recoverable.
double SignatureDistance(const SpectralSignature& a,
                         const SpectralSignature& b,
                         StepCounter* counter = nullptr);

/// Validated variant: kInvalidArgument (naming both dimensionalities)
/// instead of aborting on a dims mismatch.
[[nodiscard]]
StatusOr<double> SignatureDistanceChecked(const SpectralSignature& a,
                                          const SpectralSignature& b,
                                          StepCounter* counter = nullptr);

/// The paper's cost model charges n*log2(n) steps per FFT lower-bound use
/// (Section 5.3). Benches call this to account a transform.
std::uint64_t FftStepCost(std::size_t n);

/// Band-pooled rotation/mirror-invariant vector embedding (in the spirit
/// of the Shafieasl & Phillips rotation-invariant vectorization): the FULL
/// weighted magnitude spectrum x (all n/2 bins of SpectralSignature, so no
/// high-frequency energy is discarded) is partitioned into `dims`
/// contiguous frequency bands and each band stores its L2 energy,
/// v_b = ||x restricted to band b||_2. Per band, the reverse triangle
/// inequality gives |v_b(Q) - v_b(C)| <= ||x_b(Q) - x_b(C)||, so
///
///   ||v(Q) - v(C)||_2 <= ||x(Q) - x(C)||_2 <= RED(Q, C)
///
/// — a Euclidean-only lower bound on the rotation-invariant distance that
/// is invariant under BOTH circular shifts and mirroring (DFT magnitudes
/// are unchanged by either), so one stored vector per object prunes the
/// whole rotation x mirror orbit. A deliberately distinct type from
/// SpectralSignature: the two embeddings live in different spaces and
/// comparing them across kinds is meaningless.
struct VecSignature {
  std::vector<double> values;

  std::size_t dims() const { return values.size(); }
};

/// Builds the `dims`-band pooled signature. CONTRACT: `dims` is clamped to
/// n/2 (a band needs at least one spectrum bin) and must be >= 1; requires
/// n >= 2. The clamp has the same heterogeneous-length footgun as
/// MakeSpectralSignature — use the Checked variant to make it an error.
VecSignature MakeVecSignature(const Series& s, std::size_t dims);

/// Validated variant: kInvalidArgument when n < 2, dims == 0, or dims
/// would be clamped (dims > n/2). Never clamps.
[[nodiscard]]
StatusOr<VecSignature> MakeVecSignatureChecked(const Series& s,
                                               std::size_t dims);

/// L2 distance between pooled signatures; a lower bound on RED(Q, C)
/// (Euclidean only — NOT a DTW bound). Charges `dims` steps. Mismatched
/// dimensionalities are a hard error on all build types, exactly like
/// SignatureDistance.
double VecSignatureDistance(const VecSignature& a, const VecSignature& b,
                            StepCounter* counter = nullptr);

/// Validated variant: kInvalidArgument instead of aborting on a mismatch.
[[nodiscard]]
StatusOr<double> VecSignatureDistanceChecked(const VecSignature& a,
                                             const VecSignature& b,
                                             StepCounter* counter = nullptr);

}  // namespace rotind

#endif  // ROTIND_FOURIER_SPECTRAL_H_
