/// Unit tests for the project linter. Each test seeds an in-memory tree
/// with exactly one violation and asserts the matching rule (and only it)
/// fires — so the linter itself is held to "no false negatives on the
/// violations it exists to catch, no false positives on idiomatic code".

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/rotind_lint.h"

namespace rotind {
namespace lint {
namespace {

std::vector<std::string> RuleNames(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> rules = RuleNames(findings);
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

TEST(StripCommentsAndStringsTest, RemovesProseKeepsCodeAndLines) {
  const std::string in =
      "int a; // new delete rand()\n"
      "const char* s = \".value() new\";\n"
      "/* rand()\n   spans lines */ int b;\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("int a;"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_EQ(out.find("rand"), std::string::npos);
  EXPECT_EQ(out.find(".value"), std::string::npos);
}

TEST(StripCommentsAndStringsTest, HandlesRawStringLiterals) {
  // A raw string holds a bare quote — the classic state-machine desync.
  const std::string in =
      "auto re = R\"(say \"new\" .value())\"; int after; auto s = \"x\";\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.find("new"), std::string::npos);
  EXPECT_EQ(out.find(".value"), std::string::npos);
  EXPECT_NE(out.find("int after;"), std::string::npos);
}

TEST(StripCommentsAndStringsTest, HandlesEscapesInsideLiterals) {
  const std::string in = "const char* s = \"a\\\"new\\\"b\"; char c = '\\''; int new_ok;\n";
  const std::string out = StripCommentsAndStrings(in);
  EXPECT_EQ(out.find("new\\"), std::string::npos);
  EXPECT_NE(out.find("int new_ok;"), std::string::npos);
}

/// Acceptance: a seeded layering violation is detected. envelope -> search
/// is exactly the inversion this repository once contained (lower_bound
/// lived in src/search/ while src/envelope/ included it).
TEST(RotindLintTest, DetectsSeededLayeringViolation) {
  const std::vector<SourceFile> files = {
      {"src/envelope/bad.cc",
       "#include \"src/search/hmerge.h\"\n#include \"src/core/series.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayering(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].file, "src/envelope/bad.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("search"), std::string::npos);
}

TEST(RotindLintTest, AllowsDagEdgesAndSelfIncludes) {
  const std::vector<SourceFile> files = {
      {"src/search/ok.cc",
       "#include \"src/search/scan.h\"\n"
       "#include \"src/envelope/wedge_tree.h\"\n"
       "#include \"src/fourier/spectral.h\"\n"
       "#include \"src/core/status.h\"\n"},
      {"src/index/ok.cc", "#include \"src/search/engine.h\"\n"},
      // tools/tests/bench sit above the DAG and may include anything.
      {"tools/whatever.cc", "#include \"src/index/disk.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(files).empty());
}

/// The storage layer sits between io and the consumers that fetch through
/// it: io -> storage -> {index, search}. Upward includes from storage into
/// its consumers are the inversions the DAG must reject.
TEST(RotindLintTest, StorageLayerEdges) {
  const std::vector<SourceFile> allowed = {
      {"src/storage/ok.cc",
       "#include \"src/storage/backend.h\"\n"
       "#include \"src/io/serialize.h\"\n"
       "#include \"src/core/status.h\"\n"},
      {"src/index/ok.cc", "#include \"src/storage/backend.h\"\n"},
      {"src/search/ok.cc", "#include \"src/storage/buffer_pool.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(allowed).empty());
}

TEST(RotindLintTest, ServeLayerEdges) {
  // serve sits at the top of the DAG: it may reach down into search,
  // storage, obs, and core, but nothing below may reach up into serve.
  const std::vector<SourceFile> allowed = {
      {"src/serve/ok.cc",
       "#include \"src/serve/server.h\"\n"
       "#include \"src/search/engine.h\"\n"
       "#include \"src/storage/backend.h\"\n"
       "#include \"src/obs/metrics.h\"\n"
       "#include \"src/core/status.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(allowed).empty());
}

TEST(RotindLintTest, DetectsServeBeingIncludedFromBelow) {
  const std::vector<SourceFile> files = {
      {"src/search/bad.cc", "#include \"src/serve/server.h\"\n"},
      {"src/storage/bad.cc", "#include \"src/serve/protocol.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayering(files);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "layering");
    EXPECT_EQ(f.line, 1);
  }
}

TEST(RotindLintTest, DetectsStorageIncludingItsConsumers) {
  const std::vector<SourceFile> files = {
      {"src/storage/bad_search.cc", "#include \"src/search/engine.h\"\n"},
      {"src/storage/bad_index.cc",
       "#include \"src/index/sharded_index.h\"\n"},
      // storage is below obs too: I/O accounting flows up via FetchStats,
      // never by storage reaching into the metrics registry.
      {"src/storage/bad_obs.cc", "#include \"src/obs/metrics.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayering(files);
  ASSERT_EQ(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "layering");
    EXPECT_EQ(f.line, 1);
  }
}

TEST(RotindLintTest, FlagsModuleMissingFromDag) {
  const std::vector<SourceFile> files = {
      {"src/newmodule/a.cc", "#include \"src/core/series.h\"\n"}};
  const std::vector<Finding> findings = CheckLayering(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("layer DAG"), std::string::npos);
}

TEST(RotindLintTest, LayeringIgnoresIncludesInComments) {
  const std::vector<SourceFile> files = {
      {"src/envelope/ok.cc",
       "// #include \"src/search/hmerge.h\" (moved; see history)\n"
       "#include \"src/envelope/envelope.h\"\n"}};
  EXPECT_TRUE(CheckLayering(files).empty());
}

/// Acceptance: a missing [[nodiscard]] on a Status-returning declaration
/// is detected — in headers, where the contract is visible to callers.
TEST(RotindLintTest, DetectsMissingNodiscard) {
  const std::vector<SourceFile> files = {
      {"src/io/bad.h",
       "Status SaveThing(const std::string& path);\n"
       "StatusOr<int> ParseThing(std::string_view text);\n"},
  };
  const std::vector<Finding> findings = CheckNodiscard(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "nodiscard");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].line, 2);
}

TEST(RotindLintTest, AcceptsNodiscardOnSameOrPreviousLine) {
  const std::vector<SourceFile> files = {
      {"src/io/ok.h",
       "[[nodiscard]] Status SaveThing(const std::string& path);\n"
       "[[nodiscard]] static StatusOr<int> ParseThing(std::string_view t);\n"
       "[[nodiscard]]\n"
       "StatusOr<std::vector<double>> LongDeclarationName(int value);\n"},
  };
  EXPECT_TRUE(CheckNodiscard(files).empty());
}

TEST(RotindLintTest, NodiscardIgnoresUsesAndDefinitionsInCc) {
  const std::vector<SourceFile> files = {
      {"src/io/ok.h",
       "class Foo {\n"
       "  Status status_;\n"  // member, not a declaration
       "};\n"
       "// Status Load(const std::string&) — documented, not declared\n"},
      {"src/io/impl.cc",
       // Out-of-line definitions carry the attribute at the declaration.
       "Status SaveThing(const std::string& path) { return Status::Ok(); }\n"
       "void f() { return Status::InvalidArgument(\"x\"); }\n"},
  };
  EXPECT_TRUE(CheckNodiscard(files).empty());
}

TEST(RotindLintTest, DetectsUncheckedValueOutsideTests) {
  const std::vector<SourceFile> files = {
      {"src/search/bad.cc", "auto v = LoadThing(path).value();\n"},
      {"tests/ok_test.cc", "auto v = LoadThing(path).value();\n"},
  };
  const std::vector<Finding> findings = CheckUncheckedValue(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unchecked-value");
  EXPECT_EQ(findings[0].file, "src/search/bad.cc");
}

TEST(RotindLintTest, DetectsRawAllocationAndRandInKernels) {
  const std::vector<SourceFile> files = {
      {"src/distance/bad.cc",
       "double* buf = new double[n];\n"
       "delete[] buf;\n"
       "int r = rand();\n"},
      // Same tokens outside a kernel directory are not this rule's business.
      {"src/io/ok.cc", "double* buf = new double[n]; delete[] buf;\n"},
  };
  const std::vector<Finding> findings = CheckKernelHygiene(files);
  EXPECT_EQ(CountRule(findings, "kernel-hygiene"), 3);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/distance/bad.cc");
  }
}

TEST(RotindLintTest, AllowsDeletedSpecialMembersAndIdentifiers) {
  const std::vector<SourceFile> files = {
      {"src/search/ok.h",
       "struct E {\n"
       "  E(const E&) = delete;\n"
       "  E& operator=(const E&) =\n"
       "      delete;\n"  // continuation line, as clang-format wraps it
       "  int new_count = 0;\n"  // identifier containing the token
       "  double rand_like = randomize();\n"
       "};\n"},
  };
  EXPECT_TRUE(CheckKernelHygiene(files).empty());
}

/// Acceptance: intrinsics outside src/simd/ are detected — both the
/// *intrin.h includes and the _mm*/__m* tokens. This is the rule that keeps
/// the bit-exact scalar twin honest: vector code anywhere else would have
/// no scalar reference to be compared against.
TEST(RotindLintTest, DetectsIntrinsicsOutsideSimd) {
  const std::vector<SourceFile> files = {
      {"src/distance/bad.cc",
       "#include <immintrin.h>\n"
       "__m256d v = _mm256_setzero_pd();\n"
       "auto w = _mm256_add_pd(v, v);\n"},
  };
  const std::vector<Finding> findings = CheckIntrinsicsOutsideSimd(files);
  EXPECT_EQ(CountRule(findings, "intrinsics-outside-simd"),
            static_cast<int>(findings.size()));
  ASSERT_GE(findings.size(), 3u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/distance/bad.cc");
  }
}

TEST(RotindLintTest, AllowsIntrinsicsInsideSimdAndIgnoresProse) {
  const std::vector<SourceFile> files = {
      // The same content inside src/simd/ is exactly where it belongs.
      {"src/simd/kernels_avx2.cc",
       "#include <immintrin.h>\n"
       "__m256d v = _mm256_setzero_pd();\n"},
      // Mentions in comments and strings are not code.
      {"src/search/ok.cc",
       "// engine.cc never calls _mm256_add_pd directly; see src/simd/\n"
       "const char* s = \"__m256d\";\n"},
      // Identifiers merely containing the prefix are not intrinsics.
      {"src/distance/ok.cc", "int comm_mmap = 0; double m256 = 0.0;\n"},
  };
  EXPECT_TRUE(CheckIntrinsicsOutsideSimd(files).empty());
}

/// simd sits between core and the numeric layers: distance/envelope/search
/// may call down into it, core may not reach up.
TEST(RotindLintTest, SimdLayerEdges) {
  const std::vector<SourceFile> allowed = {
      {"src/simd/ok.cc",
       "#include \"src/simd/simd.h\"\n"
       "#include \"src/core/aligned.h\"\n"},
      {"src/distance/ok.cc", "#include \"src/simd/simd.h\"\n"},
      {"src/envelope/ok.cc", "#include \"src/simd/simd.h\"\n"},
      {"src/search/ok.cc", "#include \"src/simd/simd.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(allowed).empty());

  const std::vector<SourceFile> bad = {
      {"src/core/bad.cc", "#include \"src/simd/simd.h\"\n"},
      {"src/simd/bad.cc", "#include \"src/distance/euclidean.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayering(bad);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "layering");
  }
}

/// Acceptance: an unregistered test file is detected.
TEST(RotindLintTest, DetectsUnregisteredTest) {
  const std::vector<SourceFile> files = {
      {"tests/CMakeLists.txt",
       "set(ROTIND_TEST_SOURCES\n  alpha_test.cc\n)\n"},
      {"tests/alpha_test.cc", "TEST(A, B) {}\n"},
      {"tests/beta_test.cc", "TEST(B, C) {}\n"},
  };
  const std::vector<Finding> findings = CheckTestRegistration(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unregistered-test");
  EXPECT_EQ(findings[0].file, "tests/beta_test.cc");
}

TEST(RotindLintTest, TestRegistrationIgnoresHelpersAndSubdirs) {
  const std::vector<SourceFile> files = {
      {"tests/CMakeLists.txt", "set(ROTIND_TEST_SOURCES\n)\n"},
      {"tests/testing/fault_injection.cc", "void Corrupt();\n"},
      {"tests/testing/helper_test.cc", "TEST(H, I) {}\n"},
  };
  EXPECT_TRUE(CheckTestRegistration(files).empty());
}

TEST(RotindLintTest, DetectsSuppressionWithoutReason) {
  const std::vector<SourceFile> files = {
      {"src/core/bad.h",
       "// NOLINTNEXTLINE\n"
       "int a = unchecked();\n"
       "int b = other();  // NOLINT(some-check)\n"},
      {"src/core/ok.h",
       "// NOLINTNEXTLINE(google-explicit-constructor): implicit by design\n"
       "int c = conversion();\n"
       "int d = fine();  // NOLINT(some-check): measured hot path\n"},
  };
  const std::vector<Finding> findings = CheckNolintReasons(files);
  EXPECT_EQ(CountRule(findings, "nolint-reason"), 2);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/core/bad.h");
  }
}

TEST(RotindLintTest, NodiscardCatchesWrappedDeclarations) {
  // clang-format wraps long declarations after the return type; the
  // attribute must still be present on the first line.
  const std::vector<SourceFile> files = {
      {"src/io/bad.h",
       "StatusOr<std::vector<double>>\n"
       "ReallyLongFactoryFunctionName(const std::string& path);\n"},
  };
  const std::vector<Finding> findings = CheckNodiscard(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "nodiscard");
  EXPECT_EQ(findings[0].line, 1);

  const std::vector<SourceFile> ok = {
      {"src/io/ok.h",
       "[[nodiscard]] StatusOr<std::vector<double>>\n"
       "ReallyLongFactoryFunctionName(const std::string& path);\n"},
  };
  EXPECT_TRUE(CheckNodiscard(ok).empty());
}

/// Acceptance: a raw std sync primitive in src/ is detected — the rule
/// that funnels all locking through the annotated layer in core/sync.h
/// where Clang's thread-safety analysis can see it.
TEST(RotindLintTest, DetectsRawSyncPrimitivesInSrc) {
  const std::vector<SourceFile> files = {
      {"src/search/bad.cc",
       "#include <mutex>\n"
       "std::mutex mu;\n"
       "std::lock_guard<std::mutex> lock(mu);\n"
       "std::condition_variable cv;\n"
       "std::unique_lock<std::mutex> ul(mu);\n"},
  };
  const std::vector<Finding> findings = CheckSyncPrimitives(files);
  // One finding per line: the include, then the first token of each line.
  EXPECT_EQ(CountRule(findings, "raw-sync-primitive"), 5);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/search/bad.cc");
  }
}

TEST(RotindLintTest, AllowsSyncPrimitivesInSyncHeaderAndOutsideSrc) {
  const std::vector<SourceFile> files = {
      // The wrapping layer itself is the one sanctioned user.
      {"src/core/sync.h", "#include <mutex>\nstd::mutex mu_;\n"},
      // tests/tools/bench sit outside the annotated world.
      {"tests/ok_test.cc", "std::mutex mu;\n"},
      {"tools/ok.cc", "std::lock_guard<std::mutex> lock(mu);\n"},
      // Prose mentions are not code.
      {"src/search/ok.cc", "// never hold a std::mutex across Score()\n"},
      // rotind::Mutex and MutexLock are not std primitives.
      {"src/storage/ok.cc", "Mutex mu_;\nMutexLock lock(mu_);\n"},
  };
  EXPECT_TRUE(CheckSyncPrimitives(files).empty());
}

/// Acceptance: a member sharing a class with a rotind::Mutex but carrying
/// neither a guard annotation nor a SYNC-EXEMPT justification is detected.
TEST(RotindLintTest, DetectsUnannotatedMemberBesideMutex) {
  const std::vector<SourceFile> files = {
      {"src/storage/bad.h",
       "class Pool {\n"
       " private:\n"
       "  mutable Mutex mutex_;\n"
       "  std::size_t hits_ = 0;\n"
       "};\n"},
  };
  const std::vector<Finding> findings = CheckGuardedMembers(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("hits_"), std::string::npos);
}

TEST(RotindLintTest, GuardedByAcceptsAnnotatedConstAndExemptMembers) {
  const std::vector<SourceFile> files = {
      {"src/storage/ok.h",
       "class Pool {\n"
       " private:\n"
       "  mutable Mutex mutex_{LockRank::kBufferPool};\n"
       "  CondVar cv_;\n"
       "  std::size_t hits_ ROTIND_GUARDED_BY(mutex_) = 0;\n"
       "  Status* err_ ROTIND_PT_GUARDED_BY(mutex_) = nullptr;\n"
       "  const std::size_t capacity_;\n"
       "  static constexpr int kMax = 8;\n"
       "  /// SYNC-EXEMPT: internally synchronized — owns its own Mutex.\n"
       "  BufferPool pool_;\n"
       "  std::map<PageId,\n"
       "           Frame*>\n"
       "      frames_ ROTIND_GUARDED_BY(mutex_);\n"
       "};\n"
       "class NoLocks {\n"
       "  std::size_t fine_without_annotations_ = 0;\n"
       "};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());
}

TEST(RotindLintTest, GuardedByScopesToTheOwningClassOnly) {
  // A Mutex in one class places no obligation on a sibling class, and a
  // nested struct is a different block than its enclosing class.
  const std::vector<SourceFile> files = {
      {"src/serve/ok.h",
       "class Server {\n"
       "  struct Item {\n"
       "    std::uint64_t id_ = 0;\n"
       "  };\n"
       "  Mutex mutex_;\n"
       "  std::deque<int> queue_ ROTIND_GUARDED_BY(mutex_);\n"
       "};\n"},
  };
  EXPECT_TRUE(CheckGuardedMembers(files).empty());

  const std::vector<SourceFile> bad = {
      {"src/serve/bad.h",
       "class Server {\n"
       "  Mutex mutex_;\n"
       "  struct Inner {\n"
       "    int x_ = 0;\n"
       "  };\n"
       "  std::size_t depth_ = 0;\n"
       "};\n"},
  };
  const std::vector<Finding> findings = CheckGuardedMembers(bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6);  // depth_, not Inner::x_
}

/// Acceptance: std::atomic outside the allowlist is detected — atomics
/// are invisible to -Wthread-safety, so each use needs a standing entry.
TEST(RotindLintTest, DetectsAtomicOutsideAllowlist) {
  const std::vector<SourceFile> files = {
      {"src/index/bad.cc", "std::atomic<int> hits{0};\n"},
      // Allowlisted files and non-src trees may use atomics freely.
      {"src/core/cancel.h", "std::atomic<bool> cancelled_{false};\n"},
      {"tests/ok_test.cc", "std::atomic<int> done{0};\n"},
      {"src/search/ok.cc", "// counter was std::atomic before the Mutex\n"},
  };
  const std::vector<Finding> findings = CheckAtomicAllowlist(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "atomic-allowlist");
  EXPECT_EQ(findings[0].file, "src/index/bad.cc");
}

/// The sharded-index edges: serve -> index (server opens shard sets via
/// ShardedIndex) and index -> storage (manifest + backends) are legal;
/// the inversions — index reaching up into serve, io reaching up into
/// storage — are the seeded violations.
TEST(RotindLintTest, ShardedIndexLayerEdges) {
  const std::vector<SourceFile> allowed = {
      {"src/serve/ok.cc",
       "#include \"src/index/sharded_index.h\"\n"
       "#include \"src/serve/protocol.h\"\n"},
      {"src/index/ok.cc",
       "#include \"src/storage/manifest.h\"\n"
       "#include \"src/storage/backend.h\"\n"},
      {"src/storage/ok.cc", "#include \"src/io/bytes.h\"\n"},
  };
  EXPECT_TRUE(CheckLayering(allowed).empty());

  const std::vector<SourceFile> seeded = {
      {"src/index/bad.cc", "#include \"src/serve/server.h\"\n"},
      {"src/io/bad.cc", "#include \"src/storage/manifest.h\"\n"},
  };
  const std::vector<Finding> findings = CheckLayering(seeded);
  ASSERT_EQ(findings.size(), 2u);
  for (const Finding& f : findings) EXPECT_EQ(f.rule, "layering");
}

/// Rule 6 acceptance: a stray fopen/std::rename in src/ outside the
/// sanctioned io + storage layers is a finding — a raw rename can publish
/// state the manifest never blessed.
TEST(RotindLintTest, DetectsRawFileMutationOutsideStorage) {
  const std::vector<SourceFile> files = {
      {"src/search/bad.cc",
       "void Dump() {\n"
       "  FILE* f = fopen(\"x.bin\", \"wb\");\n"
       "  std::rename(\"x.bin.tmp\", \"x.bin\");\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckRawFileMutation(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "raw-file-mutation");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[1].message.find("WriteManifest"), std::string::npos);
}

TEST(RotindLintTest, RawFileMutationExemptionsAreScoped) {
  const std::vector<SourceFile> files = {
      // The two sanctioned layers own the primitives.
      {"src/storage/manifest.cc",
       "std::rename(tmp.c_str(), path.c_str());\n"},
      {"src/io/bytes.cc", "FILE* f = fopen(path.c_str(), \"wb\");\n"},
      // Member calls and other libraries' qualified names are not libc.
      {"src/index/ok.cc",
       "journal.rename(\"a\", \"b\");\n"
       "fs::rename(a, b);\n"},
      // Prose and string literals never trip the rule.
      {"src/search/ok.cc",
       "// compaction does a rename (see storage/manifest.cc)\n"
       "const char* kHint = \"fopen(3) semantics\";\n"},
      // Tools/tests sit outside src/ and may do as they like.
      {"tools/scratch.cc", "std::rename(\"a\", \"b\");\n"},
  };
  EXPECT_TRUE(CheckRawFileMutation(files).empty());
}

TEST(RotindLintTest, DetectsDynamicCastInSrc) {
  const std::vector<SourceFile> files = {
      {"src/search/bad.cc",
       "const FlatDataset* Tiles(const StorageBackend* b) {\n"
       "  const auto* mem = dynamic_cast<const InMemoryBackend*>(b);\n"
       "  return mem != nullptr ? mem->flat() : nullptr;\n"
       "}\n"},
  };
  const std::vector<Finding> findings = CheckDynamicCast(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "dynamic-cast");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("capability"), std::string::npos);
  EXPECT_EQ(CountRule(RunAllChecks(files), "dynamic-cast"), 1);
}

TEST(RotindLintTest, DynamicCastAllowedOutsideSrcAndInProse) {
  const std::vector<SourceFile> files = {
      // Prose and string literals never trip the rule.
      {"src/search/ok.cc",
       "// no dynamic_cast probes: ask resident_tiles() instead\n"
       "const char* kHint = \"dynamic_cast<T*>(p)\";\n"
       "const auto* tiles = backend.resident_tiles();\n"},
      // Identifiers merely containing the word are not the keyword.
      {"src/core/ok.h", "int my_dynamic_cast_count = 0;\n"},
      // Tests and tools sit outside src/ and may probe types.
      {"tests/some_test.cc",
       "EXPECT_NE(dynamic_cast<const FileBackend*>(b), nullptr);\n"},
      {"tools/rotind_cli.cc", "auto* f = dynamic_cast<const X*>(p);\n"},
  };
  EXPECT_TRUE(CheckDynamicCast(files).empty());
}

TEST(RotindLintTest, RunAllChecksAggregatesAndSorts) {
  const std::vector<SourceFile> files = {
      {"src/envelope/bad.cc",
       "#include \"src/index/disk.h\"\n"
       "double* p = new double[4];\n"},
      {"src/io/bad.h", "Status SaveThing(const std::string& path);\n"},
  };
  const std::vector<Finding> findings = RunAllChecks(files);
  EXPECT_EQ(CountRule(findings, "layering"), 1);
  EXPECT_EQ(CountRule(findings, "kernel-hygiene"), 1);
  EXPECT_EQ(CountRule(findings, "nodiscard"), 1);
  // Sorted by (file, line): both envelope findings precede the io one.
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/envelope/bad.cc");
  EXPECT_EQ(findings[2].file, "src/io/bad.h");
}

TEST(RotindLintTest, LoadSourceTreeRejectsNonRepository) {
  const StatusOr<std::vector<SourceFile>> files =
      LoadSourceTree("/nonexistent/definitely/not/a/repo");
  EXPECT_FALSE(files.ok());
}

}  // namespace
}  // namespace lint
}  // namespace rotind
