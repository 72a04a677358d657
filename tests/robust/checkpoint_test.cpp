// Crash-consistency layer: journal round-trips and torn-tail recovery,
// snapshot codec integrity (CRC, version, ontology hash, counter
// cross-checks), snapshot fallback, and checkpointed classification
// resuming to the exact fault-free taxonomy from an in-process capture.
#include "robust/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "robust/journal.hpp"
#include "support/test_dir.hpp"
#include "owl/printer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace owlcl {
namespace {

namespace fs = std::filesystem;

std::vector<unsigned char> readAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  return bytes;
}

void writeAll(const std::string& path, const std::vector<unsigned char>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

// --- journal -----------------------------------------------------------------

TEST(ResultJournal, AppendReplayRoundTrip) {
  const std::string path = test::perTestDir() + "/journal.wal";
  ResultJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, /*hash=*/0xABCD, /*seed=*/7,
                     FsyncPolicy::kNever, /*truncate=*/true, &err))
      << err;
  j.append(SettledKind::kSubsumption, 3, 4, 1);
  j.append(SettledKind::kNonSubsumption, 4, 3, 1);
  j.append(SettledKind::kSatFalse, 9, 9, 2);
  j.close();

  std::vector<JournalRecord> recs;
  ASSERT_TRUE(ResultJournal::replay(path, 0xABCD, 7, &recs, &err)) << err;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].kind, SettledKind::kSubsumption);
  EXPECT_EQ(recs[0].x, 3u);
  EXPECT_EQ(recs[0].y, 4u);
  EXPECT_EQ(recs[0].epoch, 1u);
  EXPECT_EQ(recs[2].kind, SettledKind::kSatFalse);
  EXPECT_EQ(recs[2].x, 9u);
}

TEST(ResultJournal, MissingFileReplaysEmpty) {
  std::vector<JournalRecord> recs{{SettledKind::kSatTrue, 1, 1, 0}};
  std::string err;
  EXPECT_TRUE(ResultJournal::replay(test::perTestDir() + "/nope.wal",
                                    1, 1, &recs, &err));
  EXPECT_TRUE(recs.empty());
}

TEST(ResultJournal, TornTailIsIgnoredAndTruncatedOnReopen) {
  const std::string path = test::perTestDir() + "/journal.wal";
  ResultJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, 1, 1, FsyncPolicy::kNever, true, &err));
  j.append(SettledKind::kSubsumption, 1, 2, 0);
  j.append(SettledKind::kSubsumption, 2, 3, 0);
  j.close();

  // Simulate a torn write: half a record of garbage at the tail.
  std::vector<unsigned char> bytes = readAll(path);
  const std::size_t cleanSize = bytes.size();
  for (int i = 0; i < 10; ++i) bytes.push_back(0x5A);
  writeAll(path, bytes);

  std::vector<JournalRecord> recs;
  ASSERT_TRUE(ResultJournal::replay(path, 1, 1, &recs, &err)) << err;
  EXPECT_EQ(recs.size(), 2u);  // the torn fragment is not parsed as data

  // Reopening for append truncates the torn tail, so new appends extend a
  // clean prefix.
  ASSERT_TRUE(j.open(path, 1, 1, FsyncPolicy::kNever, /*truncate=*/false,
                     &err))
      << err;
  EXPECT_EQ(fs::file_size(path), cleanSize);
  j.append(SettledKind::kSatTrue, 7, 7, 3);
  j.close();
  ASSERT_TRUE(ResultJournal::replay(path, 1, 1, &recs, &err)) << err;
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[2].kind, SettledKind::kSatTrue);
  EXPECT_EQ(recs[2].x, 7u);
}

TEST(ResultJournal, SingleBitFlipStopsReplayAtThatRecord) {
  const std::string path = test::perTestDir() + "/journal.wal";
  ResultJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, 1, 1, FsyncPolicy::kNever, true, &err));
  for (ConceptId i = 0; i < 5; ++i)
    j.append(SettledKind::kNonSubsumption, i, i + 1, 0);
  j.close();

  std::vector<unsigned char> bytes = readAll(path);
  // Flip one bit inside record #2 (0-based) — records 0 and 1 stay valid.
  bytes[ResultJournal::kHeaderBytes + 2 * ResultJournal::kRecordBytes + 5] ^=
      0x10;
  writeAll(path, bytes);

  std::vector<JournalRecord> recs;
  ASSERT_TRUE(ResultJournal::replay(path, 1, 1, &recs, &err)) << err;
  EXPECT_EQ(recs.size(), 2u);
}

TEST(ResultJournal, HeaderMismatchRefusesFile) {
  const std::string path = test::perTestDir() + "/journal.wal";
  ResultJournal j;
  std::string err;
  ASSERT_TRUE(j.open(path, /*hash=*/10, /*seed=*/20, FsyncPolicy::kNever,
                     true, &err));
  j.append(SettledKind::kSatTrue, 0, 0, 0);
  j.close();

  std::vector<JournalRecord> recs;
  EXPECT_FALSE(ResultJournal::replay(path, /*hash=*/11, 20, &recs, &err));
  EXPECT_NE(err.find("different ontology"), std::string::npos);
  EXPECT_FALSE(ResultJournal::replay(path, 10, /*seed=*/21, &recs, &err));
  EXPECT_NE(err.find("different seed"), std::string::npos);
  // Reopen-for-append must refuse the same mismatches (no silent adoption
  // of another run's journal).
  EXPECT_FALSE(j.open(path, 11, 20, FsyncPolicy::kNever, false, &err));

  // Version bump with a recomputed header CRC: structurally valid file,
  // wrong format version.
  std::vector<unsigned char> bytes = readAll(path);
  bytes[8] ^= 0x02;
  const std::uint32_t crc = crc32(bytes.data(), 28);
  bytes[28] = static_cast<unsigned char>(crc);
  bytes[29] = static_cast<unsigned char>(crc >> 8);
  bytes[30] = static_cast<unsigned char>(crc >> 16);
  bytes[31] = static_cast<unsigned char>(crc >> 24);
  writeAll(path, bytes);
  EXPECT_FALSE(ResultJournal::replay(path, 10, 20, &recs, &err));
  EXPECT_NE(err.find("version"), std::string::npos);
}

// --- snapshot codec ----------------------------------------------------------

/// A non-trivial store image: real classification state plus ledger and
/// unresolved entries.
ClassifierCheckpoint sampleCheckpoint() {
  PkStore store(70);
  store.initPossibleAll();
  store.setSatStatus(0, true);
  store.setSatStatus(1, false);
  store.eraseUnsatConcept(1);
  store.recordSubsumption(2, 3);
  store.recordNonSubsumption(3, 2);
  store.recordFailure(4, 5, /*round=*/2, /*cap=*/8);
  store.recordFailure(4, 5, /*round=*/3, /*cap=*/8);
  store.recordFailure(6, 6, /*round=*/1, /*cap=*/8);
  store.markUnresolved(4, 5);
  store.markConceptUnresolved(6);
  ClassifierCheckpoint ckpt;
  ckpt.progress = {2, 5, 7};
  ckpt.store = store.captureImage();
  return ckpt;
}

void expectEqual(const ClassifierCheckpoint& a, const ClassifierCheckpoint& b) {
  EXPECT_EQ(a.progress.completedCycles, b.progress.completedCycles);
  EXPECT_EQ(a.progress.completedRounds, b.progress.completedRounds);
  EXPECT_EQ(a.progress.epoch, b.progress.epoch);
  EXPECT_EQ(a.store.conceptCount, b.store.conceptCount);
  EXPECT_EQ(a.store.pWords, b.store.pWords);
  EXPECT_EQ(a.store.kWords, b.store.kWords);
  EXPECT_EQ(a.store.testedWords, b.store.testedWords);
  EXPECT_EQ(a.store.sat, b.store.sat);
  ASSERT_EQ(a.store.retries.size(), b.store.retries.size());
  for (std::size_t i = 0; i < a.store.retries.size(); ++i) {
    EXPECT_EQ(a.store.retries[i].key, b.store.retries[i].key);
    EXPECT_EQ(a.store.retries[i].attempts, b.store.retries[i].attempts);
    EXPECT_EQ(a.store.retries[i].retryAtRound, b.store.retries[i].retryAtRound);
  }
  EXPECT_EQ(a.store.unresolvedPairs, b.store.unresolvedPairs);
  EXPECT_EQ(a.store.unresolvedConcepts, b.store.unresolvedConcepts);
  EXPECT_EQ(a.store.totalFailures, b.store.totalFailures);
  EXPECT_EQ(a.store.possibleCount, b.store.possibleCount);
}

TEST(SnapshotCodec, EncodeDecodeRoundTrip) {
  const ClassifierCheckpoint ckpt = sampleCheckpoint();
  const std::vector<unsigned char> bytes = encodeSnapshot(ckpt, 0xFEED, 99);
  ClassifierCheckpoint back;
  std::string err;
  ASSERT_TRUE(decodeSnapshot(bytes, 0xFEED, 99, &back, &err)) << err;
  expectEqual(ckpt, back);
}

// The wire format is pinned byte for byte: the size and an FNV-1a 64
// hash of the encoding of sampleCheckpoint(), taken from the encoder as
// it was before its header write changed from a vector insert to
// resize + memcpy.
TEST(SnapshotCodec, EncodingIsPinned) {
  const std::vector<unsigned char> bytes =
      encodeSnapshot(sampleCheckpoint(), 0xFEED, 99);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 3622u);
  EXPECT_EQ(h, 0x59992228c2bf8791ULL);
}

// The encoder as it was before the word arrays went in as bulk copies:
// every field appended one byte at a time, little-endian.
std::vector<unsigned char> referenceEncode(const ClassifierCheckpoint& ckpt,
                                           std::uint64_t hash,
                                           std::uint64_t seed) {
  std::vector<unsigned char> out;
  const auto u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  };
  const auto u64 = [&u32](std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  };
  const PkStoreImage& img = ckpt.store;
  for (const char c : {'O', 'W', 'L', 'S', 'N', 'A', 'P', '1'})
    out.push_back(static_cast<unsigned char>(c));
  u32(1);  // version
  u32(0);  // flags
  u64(hash);
  u64(seed);
  u64(ckpt.progress.epoch);
  u64(ckpt.progress.completedCycles);
  u64(ckpt.progress.completedRounds);
  u64(img.conceptCount);
  for (const std::vector<std::uint64_t>* arr :
       {&img.pWords, &img.kWords, &img.testedWords}) {
    u64(arr->size());
    for (const std::uint64_t w : *arr) u64(w);
  }
  u64(img.sat.size());
  for (const std::uint8_t b : img.sat) out.push_back(b);
  u64(img.retries.size());
  for (const RetryImageEntry& e : img.retries) {
    u64(e.key);
    u32(e.attempts);
    u64(e.retryAtRound);
  }
  u64(img.unresolvedPairs.size());
  for (const auto& [x, y] : img.unresolvedPairs) {
    u32(x);
    u32(y);
  }
  u64(img.unresolvedConcepts.size());
  for (const ConceptId c : img.unresolvedConcepts) u32(c);
  u64(img.totalFailures);
  u64(img.possibleCount);
  u32(crc32(out.data(), out.size()));
  return out;
}

/// A random image of n concepts with every section populated (none of
/// the concept-indexed ones at n = 0).
ClassifierCheckpoint randomCheckpoint(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ClassifierCheckpoint c;
  c.progress = {rng() % 9, rng() % 9, rng() % 99};
  PkStoreImage& img = c.store;
  img.conceptCount = n;
  const std::size_t wpr = (n + 63) / 64;
  const std::uint64_t tail =
      n % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n % 64)) - 1;
  for (std::vector<std::uint64_t>* arr :
       {&img.pWords, &img.kWords, &img.testedWords}) {
    arr->resize(n * wpr);
    for (std::size_t i = 0; i < arr->size(); ++i)
      (*arr)[i] = rng() & (i % wpr + 1 == wpr ? tail : ~std::uint64_t{0});
  }
  for (std::size_t i = 0; i < n; ++i)
    img.sat.push_back(static_cast<std::uint8_t>(rng() % 3));
  for (std::size_t i = 0; i < 3; ++i)
    img.retries.push_back(
        {rng(), static_cast<std::uint32_t>(rng()), rng()});
  for (std::size_t i = 0; n > 0 && i < 4; ++i) {
    img.unresolvedPairs.emplace_back(static_cast<ConceptId>(rng() % n),
                                     static_cast<ConceptId>(rng() % n));
    img.unresolvedConcepts.push_back(static_cast<ConceptId>(rng() % n));
  }
  img.totalFailures = rng();
  img.possibleCount = popcountWords(img.pWords.data(), img.pWords.size());
  return c;
}

TEST(SnapshotCodec, BulkWordCopiesMatchThePerByteEncoder) {
  for (const std::size_t n : {0, 1, 64, 65}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ClassifierCheckpoint ckpt = randomCheckpoint(n, n * 31 + seed);
      const std::vector<unsigned char> bytes =
          encodeSnapshot(ckpt, 0xABCD + seed, seed);
      EXPECT_EQ(bytes, referenceEncode(ckpt, 0xABCD + seed, seed))
          << "n = " << n << ", seed " << seed;
      ClassifierCheckpoint back;
      std::string err;
      ASSERT_TRUE(decodeSnapshot(bytes, 0xABCD + seed, seed, &back, &err))
          << err;
      expectEqual(ckpt, back);
    }
  }
}

TEST(SnapshotCodec, EverySingleBitFlipIsRejected) {
  // A small image keeps the exhaustive sweep cheap: every bit of the file
  // is covered by the CRC (or breaks the magic), so every flip must fail.
  PkStore store(9);
  store.initPossibleAll();
  store.recordSubsumption(1, 2);
  ClassifierCheckpoint ckpt;
  ckpt.progress = {1, 1, 1};
  ckpt.store = store.captureImage();
  const std::vector<unsigned char> bytes = encodeSnapshot(ckpt, 5, 6);
  ClassifierCheckpoint out;
  std::string err;
  ASSERT_TRUE(decodeSnapshot(bytes, 5, 6, &out, &err)) << err;
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<unsigned char> mutated = bytes;
      mutated[byte] ^= static_cast<unsigned char>(1u << bit);
      EXPECT_FALSE(decodeSnapshot(mutated, 5, 6, &out, &err))
          << "flip at byte " << byte << " bit " << bit << " was accepted";
    }
  }
}

TEST(SnapshotCodec, VersionMismatchWithValidCrcIsRejected) {
  std::vector<unsigned char> bytes = encodeSnapshot(sampleCheckpoint(), 1, 2);
  bytes[8] ^= 0x04;  // version field, past the magic
  const std::uint32_t crc = crc32(bytes.data(), bytes.size() - 4);
  bytes[bytes.size() - 4] = static_cast<unsigned char>(crc);
  bytes[bytes.size() - 3] = static_cast<unsigned char>(crc >> 8);
  bytes[bytes.size() - 2] = static_cast<unsigned char>(crc >> 16);
  bytes[bytes.size() - 1] = static_cast<unsigned char>(crc >> 24);
  ClassifierCheckpoint out;
  std::string err;
  EXPECT_FALSE(decodeSnapshot(bytes, 1, 2, &out, &err));
  EXPECT_NE(err.find("version"), std::string::npos);
}

TEST(SnapshotCodec, WrongOntologyHashOrSeedIsRejected) {
  const std::vector<unsigned char> bytes =
      encodeSnapshot(sampleCheckpoint(), 1, 2);
  ClassifierCheckpoint out;
  std::string err;
  EXPECT_FALSE(decodeSnapshot(bytes, 3, 2, &out, &err));
  EXPECT_NE(err.find("different ontology"), std::string::npos);
  EXPECT_FALSE(decodeSnapshot(bytes, 1, 4, &out, &err));
  EXPECT_NE(err.find("different seed"), std::string::npos);
}

TEST(SnapshotCodec, InconsistentPossibleCountIsRejected) {
  // CRC-valid file whose stored |R_O| cannot be reproduced from its own P
  // bits — the popcount cross-check must catch it.
  ClassifierCheckpoint ckpt = sampleCheckpoint();
  ckpt.store.possibleCount += 1;
  const std::vector<unsigned char> bytes = encodeSnapshot(ckpt, 1, 2);
  ClassifierCheckpoint out;
  std::string err;
  EXPECT_FALSE(decodeSnapshot(bytes, 1, 2, &out, &err));
  EXPECT_NE(err.find("possible-count"), std::string::npos);
}

TEST(SnapshotCodec, FileRoundTripIsAtomic) {
  const std::string dir = test::perTestDir();
  const std::string path = dir + "/ckpt-000000000000.snap";
  const ClassifierCheckpoint ckpt = sampleCheckpoint();
  std::string err;
  ASSERT_TRUE(writeSnapshotFile(path, ckpt, 11, 12, &err)) << err;
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // temp renamed away
  ClassifierCheckpoint back;
  ASSERT_TRUE(readSnapshotFile(path, 11, 12, &back, &err)) << err;
  expectEqual(ckpt, back);
}

// --- ontology content hash ----------------------------------------------------

// The document exactly as writeFunctionalSyntax streamed it before the
// statement list was cached on the TBox: existing checkpoint directories
// carry FNV-1a hashes of these bytes.
std::string streamedDocument(const TBox& tbox) {
  std::ostringstream out;
  out << "Ontology(<http://owlcl/generated>\n";
  for (std::size_t c = 0; c < tbox.conceptCount(); ++c)
    out << "  Declaration(Class("
        << fsEntityName(tbox.conceptName(static_cast<ConceptId>(c))) << "))\n";
  for (std::size_t r = 0; r < tbox.roles().size(); ++r)
    out << "  Declaration(ObjectProperty("
        << fsEntityName(tbox.roles().name(static_cast<RoleId>(r))) << "))\n";
  for (const ToldAxiom& ax : tbox.toldAxioms())
    out << "  " << toFunctionalSyntax(tbox, ax) << "\n";
  out << ")\n";
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ContentHash, CachedRenderHashesTheStreamedDocument) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    GenConfig gc;
    gc.name = "hash";
    gc.concepts = 60;
    gc.subClassEdges = 80;
    gc.existentialAxioms = 12;
    gc.universalAxioms = 5;
    gc.qcrAxioms = 4;
    gc.equivalentAxioms = 3;
    gc.disjointAxioms = 3;
    gc.annotationAxioms = 10;
    gc.unsatConcepts = 1;
    gc.roleHierarchy = true;
    gc.transitiveRoles = true;
    gc.seed = seed;
    const GeneratedOntology g = generateOntology(gc);
    // IRI names (bracketed when rendered) next to the generated ones.
    std::vector<std::string> stmts = statementsFromTBox(*g.tbox);
    const std::string iri = "<http://example.org/onto#Iri" +
                            std::to_string(seed) + ">";
    stmts.push_back("Declaration(Class(" + iri + "))");
    stmts.push_back("Declaration(ObjectProperty(<http://example.org/onto#p>))");
    stmts.push_back("SubClassOf(" + iri +
                    " ObjectSomeValuesFrom(<http://example.org/onto#p> " +
                    fsEntityName(g.tbox->conceptName(0)) + "))");
    stmts.push_back("AnnotationAssertion(rdfs:comment " + iri +
                    " \"an IRI-named concept\")");
    TBox tbox;
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(stmts, tbox, &err)) << err;

    const std::string doc = streamedDocument(tbox);
    EXPECT_EQ(ontologyContentHash(tbox), fnv1a(doc));  // rendered afresh
    tbox.freeze();
    EXPECT_EQ(toFunctionalSyntaxDocument(tbox), doc);  // cached list
    EXPECT_EQ(ontologyContentHash(tbox), fnv1a(doc));
    EXPECT_EQ(ontologyContentHash(*g.tbox), fnv1a(streamedDocument(*g.tbox)));
  }
}

// --- journal replay onto an image -------------------------------------------

TEST(JournalReplay, RecordsAreIdempotentStoreTransitions) {
  PkStore store(8);
  store.initPossibleAll();
  ClassifierCheckpoint ckpt;
  ckpt.store = store.captureImage();

  const std::vector<JournalRecord> records = {
      {SettledKind::kSubsumption, 2, 3, 0},
      {SettledKind::kNonSubsumption, 3, 2, 0},
      {SettledKind::kSatTrue, 2, 2, 0},
      {SettledKind::kSatFalse, 5, 5, 1},
      {SettledKind::kUnresolvedPair, 6, 7, 1},
      {SettledKind::kUnresolvedConcept, 6, 6, 1},
  };
  for (const JournalRecord& r : records) applyRecordToImage(r, &ckpt.store);
  // Replaying the same records again must change nothing (idempotence).
  const PkStoreImage once = ckpt.store;
  for (const JournalRecord& r : records) applyRecordToImage(r, &ckpt.store);
  EXPECT_EQ(once.pWords, ckpt.store.pWords);
  EXPECT_EQ(once.unresolvedPairs, ckpt.store.unresolvedPairs);
  EXPECT_EQ(once.unresolvedConcepts, ckpt.store.unresolvedConcepts);

  PkStore restored(8);
  // Recovery recomputes the ground-truth possible count from the replayed
  // words before restoring; mirror that here — the restore audit FATALs on
  // an image whose count disagrees with its own words.
  ckpt.store.possibleCount = 0;
  for (const std::uint64_t w : ckpt.store.pWords)
    ckpt.store.possibleCount +=
        static_cast<std::uint64_t>(__builtin_popcountll(w));
  restored.restoreImage(ckpt.store);
  EXPECT_TRUE(restored.known(2, 3));
  EXPECT_FALSE(restored.possible(2, 3));
  EXPECT_FALSE(restored.possible(3, 2));
  EXPECT_TRUE(restored.tested(3, 2));
  EXPECT_EQ(restored.satStatus(2), SatStatus::kSat);
  EXPECT_EQ(restored.satStatus(5), SatStatus::kUnsat);
  EXPECT_FALSE(restored.possible(3, 5));  // unsat erasure cleared column 5
  EXPECT_TRUE(restored.tested(5, 3));
  EXPECT_FALSE(restored.possible(6, 7));
  EXPECT_TRUE(restored.conceptUnresolved(6));
  EXPECT_TRUE(restored.countersConsistent());
}

// --- end-to-end: checkpointed classification --------------------------------

GenConfig smallOntology() {
  GenConfig gc;
  gc.name = "ckpt";
  gc.concepts = 48;
  gc.subClassEdges = 70;
  gc.equivalentAxioms = 2;
  gc.seed = 11;
  return gc;
}

std::string taxonomyString(const ClassificationResult& r, const TBox& tbox) {
  std::ostringstream os;
  r.taxonomy.print(os, tbox);
  return os.str();
}

TEST(CheckpointManager, CheckpointedRunMatchesPlainRunAndLeavesArtifacts) {
  const GeneratedOntology onto = generateOntology(smallOntology());
  ClassifierConfig cc;
  MockReasoner clean(onto.truth);
  ThreadPool pool(3);
  RealExecutor exec(pool);
  ParallelClassifier plain(*onto.tbox, clean, cc);
  const ClassificationResult baseline = plain.classify(exec);

  const std::string dir = test::perTestDir();
  CheckpointConfig conf;
  conf.dir = dir;
  CheckpointManager mgr(conf, ontologyContentHash(*onto.tbox), cc.seed);
  std::string err;
  ASSERT_TRUE(mgr.beginFresh(&err)) << err;
  cc.checkpoint = &mgr;
  MockReasoner clean2(onto.truth);
  ThreadPool pool2(3);
  RealExecutor exec2(pool2);
  ParallelClassifier checked(*onto.tbox, clean2, cc);
  const ClassificationResult r = checked.classify(exec2);

  EXPECT_EQ(taxonomyString(baseline, *onto.tbox),
            taxonomyString(r, *onto.tbox));
  EXPECT_GT(mgr.journalAppends(), 0u);
  EXPECT_GT(mgr.snapshotsWritten(), 0u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "journal.wal"));
}

/// Records the checkpoint captured at a chosen barrier — an in-process
/// stand-in for "the process died right here".
class CaptureHook : public CheckpointHook {
 public:
  explicit CaptureHook(std::uint64_t wantBarrier) : want_(wantBarrier) {}
  void recordSettled(SettledKind, ConceptId, ConceptId,
                     std::uint64_t) override {}
  void epochBarrier(
      const ClassifierProgress&,
      const std::function<ClassifierCheckpoint()>& capture) override {
    if (seen_++ == want_) snapshot_ = capture();
  }
  bool captured() const { return seen_ > want_; }
  const ClassifierCheckpoint& checkpoint() const { return snapshot_; }

 private:
  std::uint64_t want_;
  std::uint64_t seen_ = 0;
  ClassifierCheckpoint snapshot_;
};

TEST(CheckpointManager, ResumeFromMidRunCaptureReproducesTaxonomy) {
  const GeneratedOntology onto = generateOntology(smallOntology());
  ClassifierConfig cc;
  MockReasoner clean(onto.truth);
  ThreadPool pool(3);
  RealExecutor exec(pool);
  ParallelClassifier plain(*onto.tbox, clean, cc);
  const ClassificationResult baseline = plain.classify(exec);

  // Capture at successive barriers (genesis, after cycle 1, ...) and
  // resume a fresh classifier from each: same taxonomy every time.
  for (std::uint64_t barrier = 0; barrier < 4; ++barrier) {
    CaptureHook hook(barrier);
    ClassifierConfig hooked = cc;
    hooked.checkpoint = &hook;
    MockReasoner m1(onto.truth);
    ThreadPool p1(3);
    RealExecutor e1(p1);
    ParallelClassifier first(*onto.tbox, m1, hooked);
    first.classify(e1);
    ASSERT_TRUE(hook.captured()) << "barrier " << barrier << " never reached";

    MockReasoner m2(onto.truth);
    ThreadPool p2(3);
    RealExecutor e2(p2);
    ParallelClassifier resumed(*onto.tbox, m2, cc);
    const ClassificationResult r =
        resumed.resumeClassify(e2, hook.checkpoint());
    EXPECT_EQ(taxonomyString(baseline, *onto.tbox),
              taxonomyString(r, *onto.tbox))
        << "resume from barrier " << barrier << " diverged";
    EXPECT_TRUE(r.complete());
  }
}

TEST(CheckpointManager, RecoverFallsBackWhenNewestSnapshotIsCorrupt) {
  const GeneratedOntology onto = generateOntology(smallOntology());
  ClassifierConfig cc;
  const std::string dir = test::perTestDir();
  CheckpointConfig conf;
  conf.dir = dir;
  const std::uint64_t hash = ontologyContentHash(*onto.tbox);
  CheckpointManager mgr(conf, hash, cc.seed);
  std::string err;
  ASSERT_TRUE(mgr.beginFresh(&err)) << err;
  cc.checkpoint = &mgr;
  MockReasoner clean(onto.truth);
  ThreadPool pool(3);
  RealExecutor exec(pool);
  ParallelClassifier classifier(*onto.tbox, clean, cc);
  const ClassificationResult baseline = classifier.classify(exec);

  // Corrupt the newest snapshot; recovery must anchor on its predecessor
  // (journal replay then rolls the state forward past it anyway).
  std::vector<std::string> snaps;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".snap") snaps.push_back(e.path().string());
  std::sort(snaps.begin(), snaps.end());
  ASSERT_GE(snaps.size(), 2u);
  std::vector<unsigned char> bytes = readAll(snaps.back());
  bytes[bytes.size() / 2] ^= 0xFF;
  writeAll(snaps.back(), bytes);

  CheckpointManager fresh(conf, hash, cc.seed);
  ClassifierCheckpoint recovered;
  ASSERT_TRUE(fresh.recover(&recovered, &err)) << err;

  ClassifierConfig resumeCc;
  MockReasoner m2(onto.truth);
  ThreadPool p2(3);
  RealExecutor e2(p2);
  ParallelClassifier resumed(*onto.tbox, m2, resumeCc);
  const ClassificationResult r = resumed.resumeClassify(e2, recovered);
  EXPECT_EQ(taxonomyString(baseline, *onto.tbox),
            taxonomyString(r, *onto.tbox));
}

TEST(CheckpointManager, RecoverRefusesWhenEverySnapshotIsCorrupt) {
  const std::string dir = test::perTestDir();
  CheckpointConfig conf;
  conf.dir = dir;
  CheckpointManager mgr(conf, 1, 2);
  std::string err;
  ASSERT_TRUE(mgr.beginFresh(&err)) << err;
  ClassifierProgress progress{0, 0, 0};
  mgr.epochBarrier(progress, [] {
    ClassifierCheckpoint c;
    PkStore store(4);
    store.initPossibleAll();
    c.store = store.captureImage();
    return c;
  });
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".snap") continue;
    std::vector<unsigned char> bytes = readAll(e.path().string());
    bytes[bytes.size() / 2] ^= 0xFF;
    writeAll(e.path().string(), bytes);
  }
  ClassifierCheckpoint out;
  EXPECT_FALSE(mgr.recover(&out, &err));
  EXPECT_NE(err.find("no valid snapshot"), std::string::npos);
}

TEST(CheckpointManager, SnapshotCadenceAndPruningHonoured) {
  const std::string dir = test::perTestDir();
  CheckpointConfig conf;
  conf.dir = dir;
  conf.everyRounds = 3;
  conf.keepSnapshots = 2;
  CheckpointManager mgr(conf, 1, 2);
  std::string err;
  ASSERT_TRUE(mgr.beginFresh(&err)) << err;
  const auto capture = [] {
    ClassifierCheckpoint c;
    PkStore store(4);
    store.initPossibleAll();
    c.store = store.captureImage();
    return c;
  };
  for (int i = 0; i < 9; ++i)
    mgr.epochBarrier(ClassifierProgress{0, static_cast<std::uint64_t>(i), 0},
                     capture);
  EXPECT_EQ(mgr.snapshotsWritten(), 3u);  // barriers 0, 3, 6
  std::size_t snaps = 0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.path().extension() == ".snap") ++snaps;
  EXPECT_EQ(snaps, 2u);  // pruned to keepSnapshots
}

}  // namespace
}  // namespace owlcl
