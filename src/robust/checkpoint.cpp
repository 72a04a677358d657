#include "robust/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "owl/printer.hpp"
#include "owl/tbox.hpp"
#include "robust/fault_injector.hpp"
#include "robust/file_io.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"
#include "util/crc32.hpp"

namespace owlcl {

namespace fs = std::filesystem;

namespace {

using fileio::syncDirectory;
using fileio::writeAll;

constexpr char kSnapMagic[8] = {'O', 'W', 'L', 'S', 'N', 'A', 'P', '1'};
constexpr std::uint32_t kSnapVersion = 1;
constexpr char kJournalName[] = "journal.wal";
constexpr char kSnapPrefix[] = "ckpt-";
constexpr char kSnapSuffix[] = ".snap";

std::atomic<std::uint64_t> gSnapshotFileWrites{0};

/// The snapshot's word arrays are little-endian on disk: one bulk copy on
/// a little-endian host, a per-word byte-order conversion elsewhere.
void storeWordsLe(unsigned char* out, const std::uint64_t* words,
                  std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(out, words, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      fileio::putU64(out + 8 * i, words[i]);
  }
}

void loadWordsLe(std::uint64_t* words, const unsigned char* in,
                 std::size_t count) {
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) std::memcpy(words, in, count * 8);
  } else {
    for (std::size_t i = 0; i < count; ++i)
      words[i] = fileio::getU64(in + 8 * i);
  }
}

/// Little-endian writer into a buffer sized up front.
class ByteWriter {
 public:
  explicit ByteWriter(unsigned char* p) : p_(p) {}

  void u32(std::uint32_t v) {
    fileio::putU32(p_, v);
    p_ += 4;
  }
  void u64(std::uint64_t v) {
    fileio::putU64(p_, v);
    p_ += 8;
  }
  void bytes(const void* src, std::size_t n) {
    if (n != 0) std::memcpy(p_, src, n);
    p_ += n;
  }
  void words(const std::vector<std::uint64_t>& w) {
    storeWordsLe(p_, w.data(), w.size());
    p_ += 8 * w.size();
  }
  unsigned char* pos() const { return p_; }

 private:
  unsigned char* p_;
};

/// Bounds-checked little-endian reader over a byte buffer.
class ByteReader {
 public:
  ByteReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  bool u32(std::uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = fileio::getU32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t* v) {
    std::uint32_t lo = 0, hi = 0;
    if (!u32(&lo) || !u32(&hi)) return false;
    *v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }
  bool bytes(unsigned char* out, std::size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool words(std::uint64_t* out, std::size_t n) {
    if (n > (size_ - pos_) / 8) return false;
    loadWordsLe(out, data_ + pos_, n);
    pos_ += 8 * n;
    return true;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

std::size_t wordsPerRow(std::uint64_t conceptCount) {
  return (static_cast<std::size_t>(conceptCount) + 63) / 64;
}

// --- word-level bit ops on a serialized matrix image ------------------------

bool imgTest(const std::vector<std::uint64_t>& words, std::size_t wpr,
             ConceptId r, ConceptId c) {
  return (words[r * wpr + c / 64] >> (c % 64)) & 1u;
}

void imgSet(std::vector<std::uint64_t>* words, std::size_t wpr, ConceptId r,
            ConceptId c) {
  (*words)[r * wpr + c / 64] |= std::uint64_t{1} << (c % 64);
}

void imgClear(std::vector<std::uint64_t>* words, std::size_t wpr, ConceptId r,
              ConceptId c) {
  (*words)[r * wpr + c / 64] &= ~(std::uint64_t{1} << (c % 64));
}

void imgClearRow(std::vector<std::uint64_t>* words, std::size_t wpr,
                 ConceptId r) {
  std::fill(words->begin() + static_cast<std::ptrdiff_t>(r * wpr),
            words->begin() + static_cast<std::ptrdiff_t>((r + 1) * wpr), 0);
}

/// ckpt-*.snap sequence numbers present in `dir`, ascending.
std::vector<std::uint64_t> listSnapshotSeqs(const std::string& dir) {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() <= std::strlen(kSnapPrefix) + std::strlen(kSnapSuffix) ||
        name.rfind(kSnapPrefix, 0) != 0 ||
        name.compare(name.size() - std::strlen(kSnapSuffix),
                     std::strlen(kSnapSuffix), kSnapSuffix) != 0)
      continue;
    const std::string digits =
        name.substr(std::strlen(kSnapPrefix),
                    name.size() - std::strlen(kSnapPrefix) -
                        std::strlen(kSnapSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    seqs.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

/// readNewestSnapshot over the already-listed sequence numbers of `dir`.
bool readNewestListed(const std::string& dir,
                      const std::vector<std::uint64_t>& seqs,
                      std::uint64_t ontologyHash, std::uint64_t seed,
                      ClassifierCheckpoint* out, std::string* error) {
  if (seqs.empty()) {
    if (error != nullptr)
      *error = "no snapshot found in " + dir + " (nothing to resume)";
    return false;
  }
  // Newest snapshot that validates wins; corruption falls back to older
  // ones (at least one must survive or recovery refuses).
  std::string firstError;
  for (auto it = seqs.rbegin(); it != seqs.rend(); ++it) {
    std::string why;
    if (readSnapshotFile(snapshotFilePath(dir, *it), ontologyHash, seed, out,
                         &why))
      return true;
    if (firstError.empty()) firstError = why;
  }
  if (error != nullptr)
    *error = "no valid snapshot in " + dir + ": " + firstError;
  return false;
}

}  // namespace

std::uint64_t ontologyContentHash(const TBox& tbox) {
  // FNV-1a 64 over the bytes of toFunctionalSyntaxDocument(tbox), fed from
  // the statement list (rendered once per frozen TBox) without building
  // the document: stable across platforms, no dependency on std::hash.
  std::vector<std::string> fresh;
  if (!tbox.frozen()) fresh = renderStatementList(tbox);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  forEachDocumentPiece(
      tbox.frozen() ? tbox.canonicalStatements() : fresh,
      [&h](std::string_view bytes) {
        for (const char ch : bytes) {
          h ^= static_cast<unsigned char>(ch);
          h *= 0x100000001b3ULL;
        }
      });
  return h;
}

std::vector<unsigned char> encodeSnapshot(const ClassifierCheckpoint& ckpt,
                                          std::uint64_t ontologyHash,
                                          std::uint64_t seed) {
  const PkStoreImage& img = ckpt.store;
  // One resize to the exact size, then sequential writes; the three
  // matrices go in as bulk little-endian copies.
  const std::size_t size =
      sizeof kSnapMagic + 4 + 4 + 6 * 8 +
      3 * 8 + 8 * (img.pWords.size() + img.kWords.size() +
                   img.testedWords.size()) +
      8 + img.sat.size() + 8 + 20 * img.retries.size() + 8 +
      8 * img.unresolvedPairs.size() + 8 + 4 * img.unresolvedConcepts.size() +
      8 + 8 + 4;
  std::vector<unsigned char> out(size);
  ByteWriter w(out.data());
  w.bytes(kSnapMagic, sizeof kSnapMagic);
  w.u32(kSnapVersion);
  w.u32(0);  // flags
  w.u64(ontologyHash);
  w.u64(seed);
  w.u64(ckpt.progress.epoch);
  w.u64(ckpt.progress.completedCycles);
  w.u64(ckpt.progress.completedRounds);
  w.u64(img.conceptCount);
  for (const std::vector<std::uint64_t>* arr :
       {&img.pWords, &img.kWords, &img.testedWords}) {
    w.u64(arr->size());
    w.words(*arr);
  }
  w.u64(img.sat.size());
  w.bytes(img.sat.data(), img.sat.size());
  w.u64(img.retries.size());
  for (const RetryImageEntry& e : img.retries) {
    w.u64(e.key);
    w.u32(e.attempts);
    w.u64(e.retryAtRound);
  }
  w.u64(img.unresolvedPairs.size());
  for (const auto& [x, y] : img.unresolvedPairs) {
    w.u32(x);
    w.u32(y);
  }
  w.u64(img.unresolvedConcepts.size());
  for (const ConceptId c : img.unresolvedConcepts) w.u32(c);
  w.u64(img.totalFailures);
  w.u64(img.possibleCount);
  w.u32(crc32(out.data(), size - 4));
  OWLCL_ASSERT(w.pos() == out.data() + size);
  return out;
}

bool decodeSnapshot(const std::vector<unsigned char>& bytes,
                    std::uint64_t ontologyHash, std::uint64_t seed,
                    ClassifierCheckpoint* out, std::string* error) {
  const auto fail = [error](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (bytes.size() < 12) return fail("snapshot truncated");
  if (std::memcmp(bytes.data(), kSnapMagic, 8) != 0)
    return fail("snapshot magic mismatch");
  // CRC first: anything else in the file is untrusted until it passes.
  const std::size_t body = bytes.size() - 4;
  if (fileio::getU32(bytes.data() + body) != crc32(bytes.data(), body))
    return fail("snapshot CRC mismatch");

  ByteReader r(bytes.data(), body);
  unsigned char magic[8];
  std::uint32_t version = 0, flags = 0;
  std::uint64_t hash = 0, fileSeed = 0;
  if (!r.bytes(magic, 8) || !r.u32(&version) || !r.u32(&flags) ||
      !r.u64(&hash) || !r.u64(&fileSeed))
    return fail("snapshot header truncated");
  if (version != kSnapVersion) return fail("snapshot format version mismatch");
  if (hash != ontologyHash) return fail("snapshot belongs to a different ontology");
  if (fileSeed != seed) return fail("snapshot belongs to a different seed");

  ClassifierCheckpoint ckpt;
  PkStoreImage& img = ckpt.store;
  if (!r.u64(&ckpt.progress.epoch) || !r.u64(&ckpt.progress.completedCycles) ||
      !r.u64(&ckpt.progress.completedRounds) || !r.u64(&img.conceptCount))
    return fail("snapshot progress truncated");
  const std::uint64_t expectedWords =
      img.conceptCount * wordsPerRow(img.conceptCount);
  for (std::vector<std::uint64_t>* arr :
       {&img.pWords, &img.kWords, &img.testedWords}) {
    std::uint64_t count = 0;
    if (!r.u64(&count)) return fail("snapshot matrix truncated");
    if (count != expectedWords)
      return fail("snapshot matrix size inconsistent with concept count");
    if (r.remaining() / 8 < count) return fail("snapshot matrix truncated");
    arr->resize(count);
    r.words(arr->data(), count);
  }
  std::uint64_t satCount = 0;
  if (!r.u64(&satCount)) return fail("snapshot sat array truncated");
  if (satCount != img.conceptCount)
    return fail("snapshot sat array size inconsistent with concept count");
  img.sat.resize(satCount);
  if (satCount != 0 && !r.bytes(img.sat.data(), satCount))
    return fail("snapshot sat array truncated");
  std::uint64_t retryCount = 0;
  if (!r.u64(&retryCount) || r.remaining() < retryCount * 20)
    return fail("snapshot retry ledger truncated");
  img.retries.resize(retryCount);
  for (RetryImageEntry& e : img.retries) {
    if (!r.u64(&e.key) || !r.u32(&e.attempts) || !r.u64(&e.retryAtRound))
      return fail("snapshot retry ledger truncated");
  }
  std::uint64_t pairCount = 0;
  if (!r.u64(&pairCount) || r.remaining() < pairCount * 8)
    return fail("snapshot unresolved pairs truncated");
  img.unresolvedPairs.resize(pairCount);
  for (auto& [x, y] : img.unresolvedPairs)
    if (!r.u32(&x) || !r.u32(&y))
      return fail("snapshot unresolved pairs truncated");
  std::uint64_t conceptCount2 = 0;
  if (!r.u64(&conceptCount2) || r.remaining() < conceptCount2 * 4)
    return fail("snapshot unresolved concepts truncated");
  img.unresolvedConcepts.resize(conceptCount2);
  for (ConceptId& c : img.unresolvedConcepts)
    if (!r.u32(&c)) return fail("snapshot unresolved concepts truncated");
  if (!r.u64(&img.totalFailures) || !r.u64(&img.possibleCount))
    return fail("snapshot footer truncated");
  if (r.remaining() != 0) return fail("snapshot has trailing bytes");

  // Integrity cross-check beyond the CRC: the stored |R_O| must equal an
  // actual popcount of the P words (a snapshot whose counters cannot be
  // reproduced from its own bits is rejected, per the recovery contract).
  if (popcountWords(img.pWords.data(), img.pWords.size()) !=
      img.possibleCount)
    return fail("snapshot possible-count does not match its P bits");
  for (const ConceptId c : img.unresolvedConcepts)
    if (c >= img.conceptCount)
      return fail("snapshot unresolved concept out of range");

  *out = std::move(ckpt);
  return true;
}

bool writeSnapshotFile(const std::string& path,
                       const ClassifierCheckpoint& ckpt,
                       std::uint64_t ontologyHash, std::uint64_t seed,
                       std::string* error, CrashInjector* crash,
                       std::uint64_t barrierOrdinal) {
  const std::vector<unsigned char> bytes =
      encodeSnapshot(ckpt, ontologyHash, seed);
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) *error = "cannot create snapshot temp file: " + tmp;
    return false;
  }
  const bool written = writeAll(fd, bytes.data(), bytes.size());
  const bool synced = written && ::fdatasync(fd) == 0;
  ::close(fd);
  if (!synced) {
    if (error != nullptr) *error = "cannot write snapshot temp file: " + tmp;
    ::unlink(tmp.c_str());
    return false;
  }
  if (crash != nullptr && crash->crashBeforeRenameNow(barrierOrdinal)) {
    // The temp file is durable but the rename never happens: recovery must
    // ignore *.tmp and anchor on the previous snapshot.
    CrashInjector::crash();
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename snapshot into place: " + path;
    ::unlink(tmp.c_str());
    return false;
  }
  syncDirectory(fs::path(path).parent_path().string());
  gSnapshotFileWrites.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t snapshotFileWrites() {
  return gSnapshotFileWrites.load(std::memory_order_relaxed);
}

std::string snapshotFilePath(const std::string& dir, std::uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%012llu%s", kSnapPrefix,
                static_cast<unsigned long long>(seq), kSnapSuffix);
  return (fs::path(dir) / name).string();
}

bool readNewestSnapshot(const std::string& dir, std::uint64_t ontologyHash,
                        std::uint64_t seed, ClassifierCheckpoint* out,
                        std::string* error) {
  return readNewestListed(dir, listSnapshotSeqs(dir), ontologyHash, seed, out,
                          error);
}

bool readSnapshotFile(const std::string& path, std::uint64_t ontologyHash,
                      std::uint64_t seed, ClassifierCheckpoint* out,
                      std::string* error) {
  std::vector<unsigned char> bytes;
  bool exists = false;
  if (!fileio::readFile(path, &bytes, &exists) || !exists) {
    if (error != nullptr) *error = "cannot read snapshot: " + path;
    return false;
  }
  return decodeSnapshot(bytes, ontologyHash, seed, out, error);
}

void applyRecordToImage(const JournalRecord& rec, PkStoreImage* img) {
  const std::size_t wpr = wordsPerRow(img->conceptCount);
  const ConceptId x = rec.x;
  const ConceptId y = rec.y;
  if (x >= img->conceptCount || y >= img->conceptCount) return;  // corrupt id
  switch (rec.kind) {
    case SettledKind::kSubsumption:
      imgSet(&img->testedWords, wpr, x, y);
      imgSet(&img->kWords, wpr, x, y);
      imgClear(&img->pWords, wpr, x, y);
      break;
    case SettledKind::kNonSubsumption:
      imgSet(&img->testedWords, wpr, x, y);
      imgClear(&img->pWords, wpr, x, y);
      break;
    case SettledKind::kPruneIndirect:
      imgSet(&img->testedWords, wpr, x, y);
      imgClear(&img->pWords, wpr, x, y);
      imgClear(&img->kWords, wpr, x, y);
      break;
    case SettledKind::kSatTrue:
      img->sat[x] = static_cast<std::uint8_t>(SatStatus::kSat);
      break;
    case SettledKind::kSatFalse:
      // Mirrors PkStore::eraseUnsatConcept: x subsumes nothing, is a known
      // (not possible) subsumee of nothing useful, and every pair test
      // involving x is moot.
      img->sat[x] = static_cast<std::uint8_t>(SatStatus::kUnsat);
      imgClearRow(&img->pWords, wpr, x);
      imgClearRow(&img->kWords, wpr, x);
      for (ConceptId other = 0; other < img->conceptCount; ++other) {
        if (other == x) continue;
        imgClear(&img->pWords, wpr, other, x);
        imgClear(&img->kWords, wpr, other, x);
        imgSet(&img->testedWords, wpr, other, x);
        imgSet(&img->testedWords, wpr, x, other);
      }
      break;
    case SettledKind::kUnresolvedPair:
      imgSet(&img->testedWords, wpr, x, y);
      // The live run records the pair exactly once — iff its call withdrew
      // the P bit. Replay preserves that: an already-clear bit means the
      // withdrawal is part of the snapshot (and so is the list entry).
      if (imgTest(img->pWords, wpr, x, y)) {
        imgClear(&img->pWords, wpr, x, y);
        img->unresolvedPairs.emplace_back(x, y);
      }
      break;
    case SettledKind::kUnresolvedConcept:
      if (std::find(img->unresolvedConcepts.begin(),
                    img->unresolvedConcepts.end(),
                    x) == img->unresolvedConcepts.end())
        img->unresolvedConcepts.push_back(x);
      break;
  }
}

CheckpointManager::CheckpointManager(CheckpointConfig config,
                                     std::uint64_t ontologyHash,
                                     std::uint64_t seed)
    : config_(std::move(config)), ontologyHash_(ontologyHash), seed_(seed) {
  if (config_.everyRounds == 0) config_.everyRounds = 1;
  if (config_.keepSnapshots == 0) config_.keepSnapshots = 1;
}

void CheckpointManager::setCrashInjector(CrashInjector* crash) {
  crash_ = crash;
  journal_.setCrashInjector(crash);
}

std::string CheckpointManager::journalPath() const {
  return (fs::path(config_.dir) / kJournalName).string();
}

std::string CheckpointManager::snapshotPath(std::uint64_t seq) const {
  return snapshotFilePath(config_.dir, seq);
}

void CheckpointManager::pruneSnapshots() {
  std::vector<std::uint64_t> seqs = listSnapshotSeqs(config_.dir);
  if (seqs.size() <= config_.keepSnapshots) return;
  for (std::size_t i = 0; i + config_.keepSnapshots < seqs.size(); ++i) {
    std::error_code ec;
    fs::remove(snapshotPath(seqs[i]), ec);
  }
}

bool CheckpointManager::beginFresh(std::string* error) {
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    if (error != nullptr)
      *error = "cannot create checkpoint directory: " + config_.dir;
    return false;
  }
  for (const std::uint64_t seq : listSnapshotSeqs(config_.dir))
    fs::remove(snapshotPath(seq), ec);
  nextSeq_ = 0;
  barriers_ = 0;
  snapshotsWritten_ = 0;
  return journal_.open(journalPath(), ontologyHash_, seed_,
                       config_.fsyncPolicy, /*truncate=*/true, error);
}

bool CheckpointManager::recover(ClassifierCheckpoint* out, std::string* error) {
  const std::vector<std::uint64_t> seqs = listSnapshotSeqs(config_.dir);
  ClassifierCheckpoint ckpt;
  if (!readNewestListed(config_.dir, seqs, ontologyHash_, seed_, &ckpt, error))
    return false;

  // Replay the journal tail over the snapshot. Records predating the
  // snapshot re-apply idempotently; records after it roll the state
  // forward to the last durable verdict.
  std::vector<JournalRecord> records;
  if (!ResultJournal::replay(journalPath(), ontologyHash_, seed_, &records,
                             error))
    return false;
  for (const JournalRecord& rec : records) applyRecordToImage(rec, &ckpt.store);
  ckpt.store.possibleCount =
      popcountWords(ckpt.store.pWords.data(), ckpt.store.pWords.size());

  // Reopen for append: a torn tail is truncated away, so post-resume
  // appends extend the valid prefix the replay just consumed.
  if (!journal_.open(journalPath(), ontologyHash_, seed_, config_.fsyncPolicy,
                     /*truncate=*/false, error))
    return false;
  nextSeq_ = seqs.back() + 1;
  barriers_ = 0;
  *out = ckpt;
  return true;
}

void CheckpointManager::recordSettled(SettledKind kind, ConceptId x,
                                      ConceptId y, std::uint64_t epoch) {
  journal_.append(kind, x, y, static_cast<std::uint32_t>(epoch));
}

void CheckpointManager::recordSettledRow(SettledKind kind, ConceptId x,
                                         const std::uint64_t* words,
                                         std::size_t nwords,
                                         std::uint64_t epoch) {
  journal_.appendRow(kind, x, words, nwords, static_cast<std::uint32_t>(epoch));
}

void CheckpointManager::epochBarrier(
    const ClassifierProgress& progress,
    const std::function<ClassifierCheckpoint()>& capture) {
  (void)progress;
  journal_.sync();
  const std::uint64_t ordinal = barriers_++;
  // The first barrier a manager sees (genesis on fresh runs, the re-anchor
  // on resumed ones) always snapshots; afterwards the cadence applies.
  if (ordinal % config_.everyRounds == 0) {
    const std::uint64_t seq = nextSeq_++;
    std::string why;
    if (writeSnapshotFile(snapshotPath(seq), capture(), ontologyHash_, seed_,
                          &why, crash_, ordinal)) {
      ++snapshotsWritten_;
      pruneSnapshots();
    } else {
      // A failed snapshot is not fatal to the run: the journal still has
      // every verdict, and the previous snapshot remains the anchor.
      lastError_ = why;
    }
  }
  if (crash_ != nullptr && crash_->crashAtBarrierNow(ordinal))
    CrashInjector::crash();
}

bool CheckpointManager::snapshotFinal(const ClassifierCheckpoint& ckpt,
                                      std::string* error) {
  journal_.sync();
  const std::uint64_t seq = nextSeq_++;
  std::string why;
  if (!writeSnapshotFile(snapshotPath(seq), ckpt, ontologyHash_, seed_, &why,
                         crash_, barriers_)) {
    lastError_ = why;
    if (error != nullptr) *error = why;
    return false;
  }
  ++snapshotsWritten_;
  pruneSnapshots();
  return true;
}

bool CheckpointManager::adoptSnapshot(const std::string& path,
                                      std::string* error) {
  const std::string target = snapshotPath(nextSeq_);
  if (::rename(path.c_str(), target.c_str()) != 0) {
    if (error != nullptr)
      *error = "cannot rename snapshot " + path + " into " + target;
    return false;
  }
  ++nextSeq_;
  syncDirectory(config_.dir);
  pruneSnapshots();
  return true;
}

}  // namespace owlcl
