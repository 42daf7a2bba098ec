/// RIDX on-disk format: write/read roundtrip fidelity (bytes, signatures,
/// labels), the header/section corruption taxonomy, and the two regression
/// cases the fuzzer found interesting enough to pin — a corrupted catalog
/// section and a data-page checksum mismatch, which must surface as Status
/// from the exact layer that detects them.

#include "src/storage/index_file.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/fourier/spectral.h"
#include "src/index/index_io.h"
#include "src/search/paa.h"
#include "src/io/bytes.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"

namespace rotind::storage {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/rotind_format_test." + std::to_string(::getpid()) + "." + tag +
         ".ridx";
}

Dataset MakeDataset(std::size_t count, std::size_t length) {
  Dataset ds;
  for (std::size_t i = 0; i < count; ++i) {
    Series s(length);
    for (std::size_t j = 0; j < length; ++j) {
      s[j] = 0.25 * static_cast<double>(i) -
             1.5 * static_cast<double>(j % 7) + 0.125;
    }
    ds.items.push_back(std::move(s));
    ds.labels.push_back(static_cast<int>(i % 3));
  }
  return ds;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Builds a small labelled index and returns its byte image.
std::string BuildImage(std::size_t count, std::size_t length,
                       std::size_t page_size) {
  const std::string path = TempPath("image");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = page_size;
  const Status s = BuildIndexFile(MakeDataset(count, length), build, path);
  EXPECT_TRUE(s.ok()) << s.message();
  std::string image = ReadAll(path);
  std::remove(path.c_str());
  return image;
}

TEST(StorageFormatTest, RoundtripPreservesBytesSignaturesAndLabels) {
  const Dataset ds = MakeDataset(7, 40);
  const std::string path = TempPath("roundtrip");
  IndexBuildOptions build;
  build.sig_dims = 8;
  build.paa_dims = 5;
  build.page_size_bytes = 128;  // 40 doubles = 320 bytes: extents straddle
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  auto file = IndexFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->num_objects(), 7u);
  EXPECT_EQ((*file)->series_length(), 40u);
  EXPECT_EQ((*file)->sig_dims(), 8u);
  EXPECT_EQ((*file)->paa_dims(), 5u);
  ASSERT_TRUE((*file)->has_labels());
  EXPECT_EQ((*file)->labels(), ds.labels);

  // Resident signatures are exactly what the kernels produce.
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto sig = MakeSpectralSignature(ds.items[i], 8);
    const auto paa = PaaTransform(ds.items[i], 5);
    for (std::size_t d = 0; d < 8; ++d) {
      EXPECT_EQ((*file)->spectral_signatures()[i * 8 + d], sig.values[d]);
    }
    for (std::size_t d = 0; d < 5; ++d) {
      EXPECT_EQ((*file)->paa_summaries()[i * 5 + d], paa.values[d]);
    }
  }

  // Paged data section returns bit-identical series through the backend.
  auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                        EvictionPolicy::kLru);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    FetchStats io;
    auto h = backend->TryFetch(i, &io);
    ASSERT_TRUE(h.ok()) << h.status().message();
    ASSERT_EQ(h->length(), 40u);
    for (std::size_t j = 0; j < 40; ++j) {
      EXPECT_EQ(h->data()[j], ds.items[i][j]) << "object " << i;
    }
  }
  EXPECT_TRUE(backend->error().ok());
}

TEST(StorageFormatTest, FromMemoryParsesTheSameImage) {
  const std::string image = BuildImage(5, 24, 64);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->num_objects(), 5u);
  EXPECT_EQ((*file)->series_length(), 24u);
}

TEST(StorageFormatTest, CorruptionTaxonomy) {
  const std::string image = BuildImage(5, 24, 64);

  {
    std::string bad = image;
    bad[0] = 'X';
    EXPECT_EQ(IndexFile::FromMemory(bad).status().code(),
              StatusCode::kBadMagic);
  }
  {
    std::string bad = image;
    bad[4] = 99;  // version field, checked before the header checksum
    EXPECT_EQ(IndexFile::FromMemory(bad).status().code(),
              StatusCode::kVersionMismatch);
  }
  {
    // Any header field flip past the version trips the header checksum.
    std::string bad = image;
    bad[16] = static_cast<char>(bad[16] ^ 0x01);  // count field
    EXPECT_EQ(IndexFile::FromMemory(bad).status().code(),
              StatusCode::kCorruptHeader);
  }
  {
    // Truncations anywhere must be kTruncated or another error — never a
    // success over missing bytes, never a crash.
    for (const std::size_t cut : {0u, 3u, 8u, 63u, 64u, 200u}) {
      if (cut >= image.size()) continue;
      const auto parsed = IndexFile::FromMemory(image.substr(0, cut));
      EXPECT_FALSE(parsed.ok()) << "cut at " << cut;
    }
    // Cutting inside the data section specifically reports truncation.
    const auto short_data =
        IndexFile::FromMemory(image.substr(0, image.size() - 1));
    EXPECT_EQ(short_data.status().code(), StatusCode::kTruncated);
  }
}

/// Regression: a flipped byte inside the catalog section must fail the
/// catalog checksum at parse time — before any extent is trusted.
TEST(StorageFormatTest, CorruptedCatalogSectionIsRejectedAtParse) {
  const std::string image = BuildImage(5, 24, 64);
  std::string bad = image;
  // BuildIndexFile writes RI signatures by default, so the image is a
  // version-2 container: the catalog starts after both 64-byte headers.
  const std::size_t catalog = kIndexHeaderBytes + kIndexExtHeaderBytes;
  bad[catalog + 3] = static_cast<char>(bad[catalog + 3] ^ 0x40);
  const auto parsed = IndexFile::FromMemory(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  EXPECT_NE(parsed.status().message().find("catalog"), std::string::npos)
      << parsed.status().message();
}

/// Regression: bit rot inside a data page parses fine (pages are verified
/// lazily) but the first read of that page must fail its checksum, and the
/// failure must surface through every fetch layer — ReadPage, TryFetch,
/// and the unchecked Fetch's latched error().
TEST(StorageFormatTest, DataPageChecksumMismatchSurfacesOnRead) {
  const std::string image = BuildImage(5, 24, 64);
  auto clean = IndexFile::FromMemory(image);
  ASSERT_TRUE(clean.ok());
  const std::size_t page_size = (*clean)->page_size_bytes();
  const std::size_t num_pages = (*clean)->num_pages();
  // The strict total-size check means the data section is exactly the
  // image's tail.
  const std::size_t data_start = image.size() - num_pages * page_size;

  std::string bad = image;
  bad[data_start + 5] = static_cast<char>(bad[data_start + 5] ^ 0x10);
  auto file = IndexFile::FromMemory(bad);
  ASSERT_TRUE(file.ok()) << "data pages are verified on read, not parse";

  std::vector<char> buf(page_size);
  const Status read = (*file)->ReadPage(0, buf.data());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), StatusCode::kCorruptHeader);
  EXPECT_NE(read.message().find("checksum mismatch"), std::string::npos);

  auto backend = FileBackend::FromIndex(*std::move(file), 2,
                                        EvictionPolicy::kLru);
  FetchStats io;
  const auto fetched = backend->TryFetch(0, &io);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruptHeader);

  // Unchecked fetch path: invalid handle + latched error.
  EXPECT_TRUE(backend->error().ok());
  const SeriesHandle h = backend->Fetch(0, &io);
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(backend->error().ok());
}

TEST(StorageFormatTest, WriterValidatesShapesAndPageSize) {
  const Dataset ds = MakeDataset(3, 16);
  const std::string path = TempPath("invalid");

  IndexBuildOptions tiny_pages;
  tiny_pages.page_size_bytes = 32;  // below kMinPageSize
  EXPECT_EQ(BuildIndexFile(ds, tiny_pages, path).code(),
            StatusCode::kInvalidArgument);

  IndexBuildOptions sig_too_wide;
  sig_too_wide.sig_dims = 9;  // only n/2 = 8 spectral coefficients exist
  EXPECT_EQ(BuildIndexFile(ds, sig_too_wide, path).code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(BuildIndexFile(Dataset{}, IndexBuildOptions{}, path).code(),
            StatusCode::kInvalidArgument);

  Dataset ragged = ds;
  ragged.items[1].pop_back();
  EXPECT_EQ(BuildIndexFile(ragged, IndexBuildOptions{}, path).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

/// Overwrites the little-endian u64 at `off`.
void PatchU64(std::string& image, std::size_t off, std::uint64_t v) {
  std::memcpy(&image[off], &v, sizeof v);
}

/// Recomputes the base-header checksum after a deliberate field edit, so a
/// test exercises the semantic check behind the checksum rather than the
/// checksum itself.
void FixBaseHeaderChecksum(std::string& image) {
  PatchU64(image, kIndexHeaderBytes - 8,
           Fnv1a64(image.data(), kIndexHeaderBytes - 8));
}

/// Same for the v2 extension header at bytes [64, 128).
void FixExtHeaderChecksum(std::string& image) {
  PatchU64(image, kIndexHeaderBytes + kIndexExtHeaderBytes - 8,
           Fnv1a64(image.data() + kIndexHeaderBytes,
                   kIndexExtHeaderBytes - 8));
}

TEST(StorageFormatTest, V2RoundtripPreservesRiSignatures) {
  const Dataset ds = MakeDataset(6, 24);
  const std::string path = TempPath("v2roundtrip");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.ri_dims = 6;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());
  const std::string image = ReadAll(path);
  std::remove(path.c_str());

  EXPECT_EQ(static_cast<unsigned char>(image[4]), kIndexVersion);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_EQ((*file)->ri_dims(), 6u);
  ASSERT_EQ((*file)->ri_signatures().size(), ds.size() * 6u);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const VecSignature ri = MakeVecSignature(ds.items[i], 6);
    for (std::size_t d = 0; d < 6; ++d) {
      EXPECT_EQ((*file)->ri_signatures()[i * 6 + d], ri.values[d])
          << "object " << i << " dim " << d;
    }
  }
}

/// The writer emits the OLDEST version that can represent the payload: no
/// RI section means a version-1 container whose resident region starts at
/// byte 64, exactly like files written before v2 existed.
TEST(StorageFormatTest, WriterWithoutRiSectionEmitsVersion1) {
  const std::string path = TempPath("v1compat");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.ri_dims = 0;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(MakeDataset(5, 24), build, path).ok());
  const std::string image = ReadAll(path);
  std::remove(path.c_str());

  EXPECT_EQ(static_cast<unsigned char>(image[4]), kIndexVersionV1);
  auto file = IndexFile::FromMemory(image);
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->ri_dims(), 0u);
  EXPECT_TRUE((*file)->ri_signatures().empty());

  // v1 resident region starts right after the 64-byte header: a flip there
  // must land in the catalog, not in any extension header.
  std::string bad = image;
  bad[kIndexHeaderBytes + 3] =
      static_cast<char>(bad[kIndexHeaderBytes + 3] ^ 0x40);
  const auto parsed = IndexFile::FromMemory(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("catalog"), std::string::npos)
      << parsed.status().message();
}

TEST(StorageFormatTest, BuilderClampsRiDimsToHalfLength) {
  const std::string path = TempPath("riclamp");
  IndexBuildOptions build;  // default ri_dims = 8, but n/2 = 4 here
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(MakeDataset(4, 8), build, path).ok());
  auto file = IndexFile::Open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(file.ok()) << file.status().message();
  EXPECT_EQ((*file)->ri_dims(), 4u);
}

TEST(StorageFormatTest, ExtensionHeaderCorruptionTaxonomy) {
  const std::string image = BuildImage(5, 24, 64);  // v2: default ri_dims
  ASSERT_EQ(static_cast<unsigned char>(image[4]), kIndexVersion);

  {
    // Any byte flip inside the extension header trips its checksum.
    std::string bad = image;
    bad[kIndexHeaderBytes] = static_cast<char>(bad[kIndexHeaderBytes] ^ 0x01);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("extension header checksum"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    // A nonzero reserved byte is rejected even under a VALID checksum, so a
    // future version can assign the bytes meaning without v2 readers
    // silently accepting the result.
    std::string bad = image;
    bad[kIndexHeaderBytes + 8] = 1;
    FixExtHeaderChecksum(bad);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("reserved"), std::string::npos)
        << parsed.status().message();
  }
  {
    // RI flag set but ri_dims zero: internally inconsistent.
    std::string bad = image;
    PatchU64(bad, kIndexHeaderBytes, 0);  // ri_dims field
    FixExtHeaderChecksum(bad);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("disagree"), std::string::npos)
        << parsed.status().message();
  }
  {
    // Truncation inside the extension header is reported as such.
    const auto parsed =
        IndexFile::FromMemory(image.substr(0, kIndexHeaderBytes + 40));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kTruncated);
  }
}

/// Flag bits are version-gated: a v1 header claiming the v2-only RI section
/// is exactly as corrupt as one claiming any other unknown bit, preserving
/// the pre-v2 reader's rejection behaviour bit-for-bit.
TEST(StorageFormatTest, V1HeaderWithRiFlagIsUnknownFlagCorruption) {
  const std::string path = TempPath("v1flag");
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.ri_dims = 0;
  build.page_size_bytes = 64;
  ASSERT_TRUE(BuildIndexFile(MakeDataset(5, 24), build, path).ok());
  std::string image = ReadAll(path);
  std::remove(path.c_str());
  ASSERT_EQ(static_cast<unsigned char>(image[4]), kIndexVersionV1);

  std::uint64_t flags = 0;
  std::memcpy(&flags, &image[48], sizeof flags);
  PatchU64(image, 48, flags | kIndexFlagHasRiSig);
  FixBaseHeaderChecksum(image);
  const auto parsed = IndexFile::FromMemory(image);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  EXPECT_NE(parsed.status().message().find("unknown flag"), std::string::npos)
      << parsed.status().message();
}

TEST(StorageFormatTest, RiSectionCorruptionIsDetected) {
  const std::string image = BuildImage(5, 24, 64);  // v2: default ri_dims
  auto clean = IndexFile::FromMemory(image);
  ASSERT_TRUE(clean.ok()) << clean.status().message();
  const IndexFile& f = **clean;
  ASSERT_GT(f.ri_dims(), 0u);

  // Walk the resident layout to the RI payload: headers, then catalog,
  // page-checksum table, FFT signatures, and PAA summaries, each carrying
  // a trailing u64 checksum.
  std::size_t off = kIndexHeaderBytes + kIndexExtHeaderBytes;
  off += f.num_objects() * 16 + 8;
  off += f.num_pages() * 8 + 8;
  off += f.num_objects() * f.sig_dims() * 8 + 8;
  off += f.num_objects() * f.paa_dims() * 8 + 8;
  const std::size_t payload = f.num_objects() * f.ri_dims() * 8;

  {
    // Bit rot inside the RI payload fails the section checksum at parse.
    std::string bad = image;
    bad[off + 3] = static_cast<char>(bad[off + 3] ^ 0x20);
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
    EXPECT_NE(parsed.status().message().find("RI signature section"),
              std::string::npos)
        << parsed.status().message();
  }
  {
    // A NaN row entry under a VALID section checksum is still rejected:
    // non-finite signatures would poison every lower-bound comparison.
    std::string bad = image;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::memcpy(&bad[off], &nan, sizeof nan);
    PatchU64(bad, off + payload, Fnv1a64(bad.data() + off, payload));
    const auto parsed = IndexFile::FromMemory(bad);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), StatusCode::kBadValue);
    EXPECT_NE(parsed.status().message().find("non-finite RI signature"),
              std::string::npos)
        << parsed.status().message();
  }
}

TEST(StorageFormatTest, OpenMissingFileIsNotFound) {
  const auto file = IndexFile::Open("/nonexistent/rotind.ridx");
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kNotFound);
}

/// The shard-set manifest (RMAN) rides on the same corruption-taxonomy
/// discipline as the RIDX format it points at: a torn or bit-flipped
/// manifest is a TYPED refusal, and the atomic-rename publication protocol
/// means a crash mid-swap leaves the previous generation byte-for-byte
/// loadable. (manifest_test.cc holds the exhaustive taxonomy; this is the
/// storage-format-level contract check.)
TEST(StorageFormatTest, ManifestSharesTheCorruptionTaxonomy) {
  Manifest m;
  m.generation = 3;
  m.shards.push_back(ManifestShard{"shard-0.ridx", 4, 8});
  m.shards.push_back(ManifestShard{"shard-1.ridx", 2, 8});
  const StatusOr<std::string> image = SerializeManifest(m);
  ASSERT_TRUE(image.ok());

  {  // Torn mid-header: kTruncated, same verdict family as RIDX.
    const auto parsed = ParseManifest(image->data(), 10);
    EXPECT_EQ(parsed.status().code(), StatusCode::kTruncated);
  }
  {  // RIDX magic in a manifest slot: kBadMagic, not a parse attempt.
    std::string bad = *image;
    std::memcpy(bad.data(), "RIDX", 4);
    const auto parsed = ParseManifest(bad.data(), bad.size());
    EXPECT_EQ(parsed.status().code(), StatusCode::kBadMagic);
  }
  {  // Body bit-flip: caught by the body checksum as kCorruptHeader.
    std::string bad = *image;
    bad[bad.size() - 12] = static_cast<char>(bad[bad.size() - 12] ^ 0x40);
    const auto parsed = ParseManifest(bad.data(), bad.size());
    EXPECT_EQ(parsed.status().code(), StatusCode::kCorruptHeader);
  }

  // Crash-mid-swap: generation 4's torn temp write must not disturb the
  // published generation 3 image.
  const std::string path = "/tmp/rotind_format_manifest." +
                           std::to_string(::getpid()) + ".rman";
  ASSERT_TRUE(WriteManifest(m, path).ok());
  Manifest next = m;
  next.generation = 4;
  EXPECT_EQ(WriteManifest(next, path, ManifestWriteFault::kTornTempWrite)
                .code(),
            StatusCode::kIoError);
  const StatusOr<Manifest> survivor = LoadManifest(path);
  ASSERT_TRUE(survivor.ok());
  EXPECT_EQ(survivor->generation, 3u);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace rotind::storage
