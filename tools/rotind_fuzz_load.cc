/// Fuzzing entry point for the untrusted-input surfaces: the dataset
/// loaders (binary container and UCR text), the paged RIDX index
/// reader, the shard-set manifest parser, and the serve wire protocol's
/// request + admin parsers. One input image is fed to ALL parsers; any
/// crash, sanitizer report, or runaway allocation is a bug, since every
/// malformed input must map to a Status.
///
/// Two build modes:
///
///  * Default: a deterministic standalone runner. With file arguments it
///    replays each file through the parsers (corpus regression mode); with
///    no arguments it replays a built-in corpus of structurally interesting
///    images derived from the fault-injection harness's corruption
///    taxonomy. Exit code 0 means "no crash", which is the entire contract.
///
///  * -DROTIND_FUZZER=ON (clang only): links libFuzzer via
///    -fsanitize=fuzzer and exports LLVMFuzzerTestOneInput for
///    coverage-guided fuzzing:  ./rotind_fuzz_load corpus_dir/
///
/// Parsed datasets are additionally round-tripped through a checked search
/// call, so a file that parses must also be *usable* without UB.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/index/index_io.h"
#include "src/io/bytes.h"
#include "src/io/serialize.h"
#include "src/search/engine.h"
#include "src/serve/protocol.h"
#include "src/storage/backend.h"
#include "src/storage/index_file.h"
#include "src/storage/manifest.h"

namespace {

using namespace rotind;

/// Every parser outcome is acceptable except a crash. When a parse
/// SUCCEEDS, push the dataset through the validated search boundary too:
/// accepted files must be fully usable.
void ExerciseParsers(const std::uint8_t* data, std::size_t size) {
  const char* bytes = reinterpret_cast<const char*>(data);

  StatusOr<Dataset> binary = ParseDatasetBinary(bytes, size);
  StatusOr<Dataset> ucr = ParseDatasetUcr(std::string_view(bytes, size));
  for (StatusOr<Dataset>* parsed : {&binary, &ucr}) {
    if (!parsed->ok()) continue;
    const Dataset& ds = **parsed;
    if (ds.empty() || ds.length() == 0 || ds.length() > 1024 ||
        ds.size() > 64) {
      continue;  // keep the search step cheap under fuzzing
    }
    // Engine-level round trip: the parsed items through the flat storage
    // layout, then 1-NN with the default wedge cascade and with the full
    // pruning cascade (fft + wedge). In contract-enabled builds this also
    // walks the parsed data past every ROTIND_CONTRACT invariant (L <= U,
    // wedge nesting, LB <= exact), so a loader bug that produces a
    // structurally broken dataset aborts here instead of returning a
    // quietly wrong neighbor.
    StatusOr<FlatDataset> flat = FlatDataset::FromItemsChecked(ds.items);
    if (!flat.ok()) continue;
    (void)QueryEngine(*flat).SearchChecked(ds.items[0]);
    EngineOptions engine_options;
    engine_options.cascade.stages = {StageKind::kFftMagnitude,
                                     StageKind::kWedge};
    const QueryEngine engine(*flat, engine_options);
    (void)engine.SearchChecked(ds.items[0]);
  }

  // Serve wire protocol: the request parser is the server's only
  // network-facing untrusted surface. Each line of the input is one
  // request; an accepted request must also format cleanly.
  {
    std::string_view rest(bytes, size);
    for (int lines = 0; !rest.empty() && lines < 64; ++lines) {
      const std::size_t eol = rest.find('\n');
      const std::string_view line =
          eol == std::string_view::npos ? rest : rest.substr(0, eol);
      StatusOr<serve::Request> request = serve::ParseRequest(line);
      if (request.ok()) {
        serve::Response response;
        response.status = Status::Ok();
        response.effective_k = request->k;
        (void)serve::FormatResponse(*request, response);
      }
      // Admin grammar rides the same line transport; both the dispatch
      // test and the strict parse must hold for arbitrary bytes.
      if (serve::IsAdminRequest(line)) {
        (void)serve::ParseAdminRequest(line);
      }
      if (eol == std::string_view::npos) break;
      rest.remove_prefix(eol + 1);
    }
  }

  // Shard-set manifest: the reload path's untrusted surface. A manifest
  // that parses must also re-serialize (writer/parser agreement) — and
  // the serialized image must parse back to the same logical manifest.
  {
    StatusOr<storage::Manifest> manifest =
        storage::ParseManifest(bytes, size);
    if (manifest.ok()) {
      StatusOr<std::string> image = storage::SerializeManifest(*manifest);
      if (image.ok()) {
        (void)storage::ParseManifest(image->data(), image->size());
      }
    }
  }

  // Paged RIDX index container: the storage engine's untrusted surface.
  // FromMemory must map every byte string to a Status or a fully usable
  // IndexFile — and "usable" is exercised here: every page is read back
  // (checksum verification path) and every object is fetched through a
  // deliberately tiny BufferPool (eviction + pin churn), all of which must
  // return Status, never crash.
  StatusOr<std::unique_ptr<storage::IndexFile>> ridx =
      storage::IndexFile::FromMemory(std::string(bytes, size));
  if (ridx.ok()) {
    const storage::IndexFile& file = **ridx;
    if (file.num_objects() <= 64 && file.series_length() <= 1024 &&
        file.page_size_bytes() <= (1u << 16) && file.num_pages() <= 256) {
      std::vector<char> page(file.page_size_bytes());
      for (std::size_t p = 0; p < file.num_pages(); ++p) {
        (void)file.ReadPage(p, page.data());
      }
      const auto backend = storage::FileBackend::FromIndex(
          *std::move(ridx), /*pool_pages=*/2, storage::EvictionPolicy::kLru);
      storage::FetchStats io;
      for (std::size_t i = 0; i < backend->size(); ++i) {
        (void)backend->TryFetch(i, &io);
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ExerciseParsers(data, size);
  return 0;
}

#ifndef ROTIND_FUZZER

namespace {

/// Built-in deterministic corpus: a valid image plus hand-picked structural
/// mutations of it (truncations at every byte, header field extremes, and a
/// few text-format edge cases). Small enough to run in CI on every commit.
std::vector<std::string> BuiltInCorpus() {
  std::vector<std::string> corpus;

  Dataset ds;
  for (int i = 0; i < 3; ++i) {
    ds.items.push_back({0.5 * i, 1.0, -2.0, 0.25});
    ds.labels.push_back(i);
    // Built up in two steps: `"c" + std::to_string(i)` trips GCC 12's
    // -Wrestrict false positive (GCC PR 105651) under -Werror.
    std::string name = "c";
    name += std::to_string(i);
    ds.names.push_back(std::move(name));
  }
  // Serialize through a temp file to obtain a genuine container image.
  const std::string path =
      "/tmp/rotind_fuzz_seed." + std::to_string(::getpid()) + ".bin";
  if (SaveDatasetBinaryStatus(ds, path).ok()) {
    std::ifstream in(path, std::ios::binary);
    std::string image((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    // Every prefix of the valid image (exhaustive truncation sweep).
    for (std::size_t cut = 0; cut <= image.size(); ++cut) {
      corpus.push_back(image.substr(0, cut));
    }
    // Every single-byte corruption of the header.
    for (std::size_t i = 0; i < 26 && i < image.size(); ++i) {
      std::string mutated = image;
      mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
      corpus.push_back(std::move(mutated));
    }
  }

  // A genuine RIDX index image (tiny 64-byte pages keep the sweep cheap):
  // every prefix, plus bit-flips across the header and strided through the
  // resident sections and data pages — the corruption taxonomy the index
  // reader's checksums must catch without crashing.
  {
    Dataset small;
    for (int i = 0; i < 4; ++i) {
      small.items.push_back({0.25 * i, -1.0, 2.0, 0.5, -0.5, 1.5, 0.0, 3.0});
      small.labels.push_back(i % 2);
    }
    IndexBuildOptions build;
    build.sig_dims = 4;
    build.paa_dims = 4;
    build.page_size_bytes = 64;
    const std::string ridx_path =
        "/tmp/rotind_fuzz_seed." + std::to_string(::getpid()) + ".ridx";
    if (BuildIndexFile(small, build, ridx_path).ok()) {
      std::ifstream in(ridx_path, std::ios::binary);
      std::string image((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      std::remove(ridx_path.c_str());
      for (std::size_t cut = 0; cut <= image.size(); cut += 7) {
        corpus.push_back(image.substr(0, cut));
      }
      for (std::size_t i = 0; i < 64 && i < image.size(); ++i) {
        std::string mutated = image;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
        corpus.push_back(std::move(mutated));
      }
      for (std::size_t i = 64; i < image.size(); i += 13) {
        std::string mutated = image;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
        corpus.push_back(std::move(mutated));
      }
      corpus.push_back(std::move(image));
    }
  }

  // Shard-set manifest seeds: a genuine two-shard image with tombstones,
  // every truncation prefix, a bit-flip sweep (header checksum, version,
  // generation-rollback bait, shard-count mismatches), and structural
  // near-misses.
  {
    storage::Manifest manifest;
    manifest.generation = 3;
    manifest.shards.push_back(storage::ManifestShard{"shard-0.ridx", 5, 8});
    manifest.shards.push_back(storage::ManifestShard{"shard-1.ridx", 3, 8});
    manifest.tombstones = {1, 6};
    StatusOr<std::string> serialized = storage::SerializeManifest(manifest);
    if (serialized.ok()) {
      const std::string& image = *serialized;
      for (std::size_t cut = 0; cut <= image.size(); ++cut) {
        corpus.push_back(image.substr(0, cut));
      }
      for (std::size_t i = 0; i < image.size(); ++i) {
        std::string mutated = image;
        mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
        corpus.push_back(std::move(mutated));
      }
      // Generation rollback bait: zero the generation field (offset 8)
      // outright — parses fine, rejected only at the swap point.
      std::string rollback = image;
      for (std::size_t i = 8; i < 16 && i < rollback.size(); ++i) {
        rollback[i] = '\0';
      }
      corpus.push_back(std::move(rollback));
      // Shard-count mismatch: a count field promising more shards than
      // the body holds (truncation-class), and fewer (trailing-bytes).
      for (const char count : {'\x7f', '\x01', '\x00'}) {
        std::string miscount = image;
        if (miscount.size() > 16) miscount[16] = count;
        corpus.push_back(std::move(miscount));
      }
      // Checksum-valid absurd shard count: under the hard cap but far
      // beyond what the bytes can hold, header checksum recomputed so the
      // size bound (not the checksum) is what rejects it — the allocation
      // bomb a fuzzer would otherwise find.
      std::string absurd = image;
      if (absurd.size() >= storage::kManifestHeaderBytes) {
        const std::uint64_t huge = 1u << 19;
        std::memcpy(absurd.data() + 16, &huge, sizeof huge);
        const std::uint64_t checksum =
            Fnv1a64(absurd.data(),
                    storage::kManifestHeaderBytes - sizeof(std::uint64_t));
        std::memcpy(absurd.data() + storage::kManifestHeaderBytes -
                        sizeof(std::uint64_t),
                    &checksum, sizeof checksum);
      }
      corpus.push_back(std::move(absurd));
      corpus.push_back(image + "garbage");
      corpus.push_back(image);
    }
  }
  corpus.push_back("RMAN");
  corpus.push_back(std::string("RMAN") + std::string(36, '\0'));
  corpus.push_back(std::string("RMAN") + std::string(4096, '\xff'));

  // Admin-verb seeds: the valid grammar and its near-misses.
  corpus.push_back("reload\n");
  corpus.push_back("reload db.rman\n");
  corpus.push_back("reload db.rman extra\n");
  corpus.push_back("reload \n");
  corpus.push_back("reloadx\nreload\x01\n RELOAD\n");
  corpus.push_back("reload " + std::string(4200, 'a') + "\n");

  corpus.push_back("");
  corpus.push_back("RIND");
  corpus.push_back("RIDX");
  corpus.push_back(std::string(4096, '\0'));
  corpus.push_back("1,2,3\n4,5,6\n");
  corpus.push_back("1,2,3\n4,5\n");          // ragged
  corpus.push_back("nan,inf,-inf\n");        // non-finite everywhere
  corpus.push_back("label,not,numbers\n");   // text garbage
  corpus.push_back("1e308,1e308,1e308\n");   // near-overflow values
  corpus.push_back("1,2,3");                 // no trailing newline

  // Serve request-parser seeds: the valid grammar, every near-miss the
  // parser must reject typed, and hostile shapes (overlong, control
  // bytes, numeric extremes).
  corpus.push_back("nn 0\n");
  corpus.push_back("knn 3 7 deadline_ms=2.5\n");
  corpus.push_back("range 1 0.75\nnn 2 deadline_ms=100\nknn 0 1\n");
  corpus.push_back("nn\nknn 1\nrange 1\n");              // missing args
  corpus.push_back("nn -1\nknn 1 0\nrange 1 -2\n");      // out of range
  corpus.push_back("nn 18446744073709551616\n");         // u64 overflow
  corpus.push_back("knn 1 1048577\n");                   // k > max
  corpus.push_back("range 0 nan\nrange 0 inf\n");        // non-finite
  corpus.push_back("nn 1 deadline_ms=0\nnn 1 deadline_ms=-5\n");
  corpus.push_back("nn 1 deadline_ms=1e400\n");          // deadline inf
  // NaN deadlines: every comparison with NaN is false, so only a
  // positively-phrased range check rejects these.
  corpus.push_back("nn 1 deadline_ms=nan\nnn 1 deadline_ms=-nan\n");
  corpus.push_back("nn 1 deadline_ms=inf\nnn 1 deadline_ms=-inf\n");
  corpus.push_back("nn 1 deadline_ms=86400001\n");       // past the 1-day cap
  corpus.push_back("NN 1\n nn 1\nnn  1\nnn 1 \n");       // case / spacing
  corpus.push_back("nn 1 extra tokens here\n");
  corpus.push_back("nn 1\r\nknn 2 3\r\n");               // CRLF endings
  corpus.push_back(std::string("nn 1\x01\x7f\n"));       // control bytes
  corpus.push_back("nn " + std::string(4200, '9') + "\n");  // overlong
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t total = 0;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::ifstream in(argv[i], std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 2;
      }
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      ExerciseParsers(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                      bytes.size());
      ++total;
    }
  } else {
    for (const std::string& input : BuiltInCorpus()) {
      ExerciseParsers(reinterpret_cast<const std::uint8_t*>(input.data()),
                      input.size());
      ++total;
    }
  }
  std::printf("rotind_fuzz_load: %zu inputs, no crashes\n", total);
  return 0;
}

#endif  // ROTIND_FUZZER
