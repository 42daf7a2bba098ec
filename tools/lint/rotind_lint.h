#ifndef ROTIND_TOOLS_LINT_ROTIND_LINT_H_
#define ROTIND_TOOLS_LINT_ROTIND_LINT_H_

/// rotind_lint — the project-specific checker for the architecture the
/// compiler cannot express. Four families of rules:
///
///  1. Layering. `src/` is a DAG of modules
///     (core <- simd <- distance <- envelope <- fourier <- search <- index,
///     with cluster/obs/io/shape as low-level leaves and datasets/eval/
///     mining/stream as top consumers). An `#include "src/<dep>/..."` from a
///     module not permitted to depend on <dep> is an error: layering
///     violations are how envelope code grows a search dependency and the
///     build becomes un-refactorable.
///  2. Error-handling hygiene. Every `Status`/`StatusOr`-returning
///     declaration in a header must carry `[[nodiscard]]` (the class-level
///     attribute covers most call sites, but the declaration-site attribute
///     survives aliasing and documents intent), and `.value()` is banned
///     outside `tests/` — production code must branch on `ok()` instead of
///     asserting success.
///  3. Kernel hygiene. The numeric kernels (core, simd, distance, envelope,
///     fourier, search, index) may not use raw `new`/`delete` (RAII only;
///     `= delete`d functions are fine) nor `rand()` (all randomness goes
///     through the seeded `rotind::Rng` so experiments stay reproducible).
///     Additionally, x86 intrinsics (the *intrin.h headers, `_mm*` calls,
///     `__m*` types) are confined to src/simd/ — everything else calls
///     through `simd::KernelTable`, which is how the bit-exact scalar twin
///     and the single dispatch point stay enforceable.
///  4. Process. Every `tests/*_test.cc` must be registered in
///     `tests/CMakeLists.txt` (the list is deliberately explicit, not a
///     glob), and every clang-tidy suppression comment must carry a
///     written reason ("NOLINT(check): why").
///  5. Lock discipline. Concurrency in `src/` goes through the annotated
///     primitives in src/core/sync.h so Clang's thread-safety analysis can
///     prove the locking: raw std::mutex / std::lock_guard /
///     std::unique_lock / std::condition_variable (and their includes) are
///     banned outside that header; in any class that owns a rotind::Mutex,
///     every member must carry ROTIND_GUARDED_BY / ROTIND_PT_GUARDED_BY,
///     be const, or document why not with `// SYNC-EXEMPT: <reason>`; and
///     `std::atomic` — invisible to the analysis — is confined to an
///     explicit per-file allowlist.
///
/// The checks run over an in-memory `SourceFile` list so the unit tests
/// can seed violations without touching the filesystem; `LintRepository`
/// is the filesystem entry point used by the CLI and CI.

#include <string>
#include <vector>

#include "src/core/status.h"

namespace rotind {
namespace lint {

/// One file to lint: a repo-relative path (forward slashes) plus content.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation. `rule` is a stable machine-readable id; `message`
/// explains the violation and how to fix it.
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Replaces comments, string literals, and character literals with spaces
/// (newlines preserved), so token rules cannot fire inside prose.
[[nodiscard]] std::string StripCommentsAndStrings(const std::string& content);

/// Rule 1: the module layering DAG over `src/`.
[[nodiscard]] std::vector<Finding> CheckLayering(
    const std::vector<SourceFile>& files);

/// Rule 2a: `[[nodiscard]]` on Status/StatusOr-returning declarations in
/// headers.
[[nodiscard]] std::vector<Finding> CheckNodiscard(
    const std::vector<SourceFile>& files);

/// Rule 2b: no `.value()` outside tests/.
[[nodiscard]] std::vector<Finding> CheckUncheckedValue(
    const std::vector<SourceFile>& files);

/// Rule 3: no raw new/delete/rand() in kernel directories.
[[nodiscard]] std::vector<Finding> CheckKernelHygiene(
    const std::vector<SourceFile>& files);

/// Rule 3b: x86 intrinsics (*intrin.h includes, _mm*/__m* tokens) only
/// inside src/simd/.
[[nodiscard]] std::vector<Finding> CheckIntrinsicsOutsideSimd(
    const std::vector<SourceFile>& files);

/// Rule 4a: every tests/*_test.cc appears in tests/CMakeLists.txt.
[[nodiscard]] std::vector<Finding> CheckTestRegistration(
    const std::vector<SourceFile>& files);

/// Rule 4b: every clang-tidy suppression comment carries a reason.
[[nodiscard]] std::vector<Finding> CheckNolintReasons(
    const std::vector<SourceFile>& files);

/// Rule 5a: raw std sync primitives (mutex/lock/condition_variable types
/// and their headers) banned in src/ outside src/core/sync.h.
[[nodiscard]] std::vector<Finding> CheckSyncPrimitives(
    const std::vector<SourceFile>& files);

/// Rule 5b: in src/ classes owning a rotind::Mutex, every member is
/// annotated (ROTIND_GUARDED_BY / ROTIND_PT_GUARDED_BY), const, or
/// carries a `// SYNC-EXEMPT: <reason>` comment.
[[nodiscard]] std::vector<Finding> CheckGuardedMembers(
    const std::vector<SourceFile>& files);

/// Rule 5c: std::atomic only in the per-file allowlist (atomics bypass
/// the thread-safety analysis, so each use needs a standing justification).
[[nodiscard]] std::vector<Finding> CheckAtomicAllowlist(
    const std::vector<SourceFile>& files);

/// Rule 6: direct libc file mutation (fopen / rename, plain or
/// std-qualified) banned in src/ outside src/io/ + src/storage/ — file
/// writes go through io::WriteStringToFile, atomic publication through
/// storage::WriteManifest, so crash safety is auditable in one place.
/// Member calls (x.rename(...)) and non-std qualified names are exempt.
[[nodiscard]] std::vector<Finding> CheckRawFileMutation(
    const std::vector<SourceFile>& files);

/// Rule 7: no `dynamic_cast` in src/. A capability is a virtual query on
/// the interface, null by default (StorageBackend::resident_tiles): a
/// decorator can decline to forward it, while a concrete-type probe sees
/// through decorators and couples callers to class names.
[[nodiscard]] std::vector<Finding> CheckDynamicCast(
    const std::vector<SourceFile>& files);

/// All rules, findings ordered by (file, line).
[[nodiscard]] std::vector<Finding> RunAllChecks(
    const std::vector<SourceFile>& files);

/// Reads the lintable tree (src/, tools/, bench/, tests/, examples/ —
/// *.h, *.cc, *.cpp — plus tests/CMakeLists.txt) under `repo_root`.
[[nodiscard]] StatusOr<std::vector<SourceFile>> LoadSourceTree(
    const std::string& repo_root);

/// Filesystem entry point: LoadSourceTree + RunAllChecks.
[[nodiscard]] StatusOr<std::vector<Finding>> LintRepository(
    const std::string& repo_root);

}  // namespace lint
}  // namespace rotind

#endif  // ROTIND_TOOLS_LINT_ROTIND_LINT_H_
