#include "robust/delta_journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>

#include "robust/fault_injector.hpp"
#include "robust/file_io.hpp"
#include "util/crc32.hpp"

namespace owlcl {

namespace {

using namespace fileio;

constexpr char kMagic[8] = {'O', 'W', 'L', 'D', 'L', 'T', 'A', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kRecordHeadBytes = 12;  // kind + pad + txid + len

namespace fs = std::filesystem;

bool validKind(unsigned char k) {
  return k >= static_cast<unsigned char>(DeltaOpKind::kBegin) &&
         k <= static_cast<unsigned char>(DeltaOpKind::kAbort);
}

std::vector<unsigned char> encodeRecord(const DeltaRecord& rec) {
  std::string payload;
  if (rec.kind == DeltaOpKind::kAdd || rec.kind == DeltaOpKind::kRetract) {
    payload = rec.stmt;
  } else if (rec.kind == DeltaOpKind::kCommit) {
    unsigned char h[8];
    putU64(h, rec.newHash);
    payload.assign(reinterpret_cast<const char*>(h), 8);
  }
  std::vector<unsigned char> bytes(kRecordHeadBytes + payload.size() + 4);
  bytes[0] = static_cast<unsigned char>(rec.kind);
  bytes[1] = bytes[2] = bytes[3] = 0;
  putU32(bytes.data() + 4, rec.txid);
  putU32(bytes.data() + 8, static_cast<std::uint32_t>(payload.size()));
  std::memcpy(bytes.data() + kRecordHeadBytes, payload.data(), payload.size());
  putU32(bytes.data() + kRecordHeadBytes + payload.size(),
         crc32(bytes.data(), kRecordHeadBytes + payload.size()));
  return bytes;
}

/// Header check + record walk over an in-memory WAL image. Returns the
/// number of bytes of valid data; -1 on a bad or mismatched header.
long long validPrefixLength(const std::vector<unsigned char>& bytes,
                            std::uint64_t baseHash, std::string* error,
                            std::vector<DeltaRecord>* out) {
  if (bytes.size() < DeltaJournal::kHeaderBytes) {
    if (error != nullptr) *error = "delta WAL header truncated";
    return -1;
  }
  const unsigned char* h = bytes.data();
  if (std::memcmp(h, kMagic, 8) != 0) {
    if (error != nullptr) *error = "delta WAL magic mismatch";
    return -1;
  }
  if (getU32(h + 20) != crc32(h, 20)) {
    if (error != nullptr) *error = "delta WAL header CRC mismatch";
    return -1;
  }
  if (getU32(h + 8) != kVersion) {
    if (error != nullptr) *error = "delta WAL format version mismatch";
    return -1;
  }
  if (getU64(h + 12) != baseHash) {
    if (error != nullptr) *error = "delta WAL belongs to a different ontology";
    return -1;
  }
  std::size_t pos = DeltaJournal::kHeaderBytes;
  while (pos + kRecordHeadBytes + 4 <= bytes.size()) {
    const unsigned char* r = bytes.data() + pos;
    if (!validKind(r[0])) break;
    const std::size_t len = getU32(r + 8);
    if (pos + kRecordHeadBytes + len + 4 > bytes.size()) break;  // torn tail
    if (getU32(r + kRecordHeadBytes + len) != crc32(r, kRecordHeadBytes + len))
      break;
    DeltaRecord rec;
    rec.kind = static_cast<DeltaOpKind>(r[0]);
    rec.txid = getU32(r + 4);
    if (rec.kind == DeltaOpKind::kAdd || rec.kind == DeltaOpKind::kRetract) {
      rec.stmt.assign(reinterpret_cast<const char*>(r + kRecordHeadBytes), len);
    } else if (rec.kind == DeltaOpKind::kCommit) {
      if (len != 8) break;  // malformed commit payload counts as torn
      rec.newHash = getU64(r + kRecordHeadBytes);
    }
    if (out != nullptr) out->push_back(std::move(rec));
    pos += kRecordHeadBytes + len + 4;
  }
  return static_cast<long long>(pos);
}

/// The cone rerun's checkpoint hook: no I/O. With a crash injector set it
/// numbers the rerun's verdicts (rows bit by bit, ascending) and dies at
/// the kCrashMidRerun ordinal.
class RerunCrashHook : public CheckpointHook {
 public:
  explicit RerunCrashHook(CrashInjector* crash) : crash_(crash) {}

  void recordSettled(SettledKind, ConceptId, ConceptId,
                     std::uint64_t) override {
    count(1);
  }
  void recordSettledRow(SettledKind, ConceptId, const std::uint64_t* words,
                        std::size_t nwords, std::uint64_t) override {
    if (crash_ != nullptr) count(popcountWords(words, nwords));
  }
  void epochBarrier(const ClassifierProgress&,
                    const std::function<ClassifierCheckpoint()>&) override {}

 private:
  void count(std::uint64_t verdicts) {
    if (crash_ == nullptr) return;
    const std::uint64_t first =
        verdicts_.fetch_add(verdicts, std::memory_order_relaxed);
    for (std::uint64_t i = 0; i < verdicts; ++i)
      if (crash_->crashMidRerunNow(first + i)) CrashInjector::crash();
  }

  CrashInjector* const crash_;
  std::atomic<std::uint64_t> verdicts_{0};
};

}  // namespace

DeltaJournal::~DeltaJournal() { close(); }

void DeltaJournal::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool DeltaJournal::writeHeader(std::uint64_t baseHash, std::string* error) {
  unsigned char h[kHeaderBytes];
  std::memcpy(h, kMagic, 8);
  putU32(h + 8, kVersion);
  putU64(h + 12, baseHash);
  putU32(h + 20, crc32(h, 20));
  if (!writeAll(fd_, h, kHeaderBytes)) {
    if (error != nullptr) *error = "cannot write delta WAL header";
    return false;
  }
  ::fdatasync(fd_);
  ++syncs_;
  return true;
}

bool DeltaJournal::open(const std::string& path, std::uint64_t baseHash,
                        bool truncate, std::string* error) {
  close();
  std::lock_guard<std::mutex> lock(mu_);
  appends_ = 0;
  syncs_ = 0;

  if (!truncate) {
    std::vector<unsigned char> bytes;
    bool exists = false;
    if (!readFile(path, &bytes, &exists)) {
      if (error != nullptr) *error = "cannot read delta WAL: " + path;
      return false;
    }
    if (exists && !bytes.empty()) {
      const long long valid = validPrefixLength(bytes, baseHash, error, nullptr);
      if (valid < 0) return false;
      fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd_ < 0) {
        if (error != nullptr)
          *error = "cannot open delta WAL for append: " + path;
        return false;
      }
      if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0 ||
          ::lseek(fd_, 0, SEEK_END) < 0) {
        if (error != nullptr) *error = "cannot truncate delta WAL tail: " + path;
        ::close(fd_);
        fd_ = -1;
        return false;
      }
      return true;
    }
  }

  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    if (error != nullptr) *error = "cannot create delta WAL: " + path;
    return false;
  }
  if (!writeHeader(baseHash, error)) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool DeltaJournal::append(const DeltaRecord& rec, std::string* error) {
  const std::vector<unsigned char> bytes = encodeRecord(rec);

  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    if (error != nullptr) *error = "delta WAL is not open";
    return false;
  }
  const std::uint64_t ordinal = appends_++;
  if (crash_ != nullptr && crash_->deltaTornWriteNow(ordinal)) {
    // Torn write: half the record reaches the file, then the process dies.
    // Recovery must truncate the fragment and treat the operation as
    // never journaled.
    writeAll(fd_, bytes.data(), bytes.size() / 2);
    ::fdatasync(fd_);
    CrashInjector::crash();
  }
  if (!writeAll(fd_, bytes.data(), bytes.size())) {
    if (error != nullptr) *error = "delta WAL append failed";
    return false;
  }
  // A transaction is committed iff its commit record is durable; this one
  // sync also covers its begin/add/retract records earlier in the file.
  if (rec.kind == DeltaOpKind::kCommit || rec.kind == DeltaOpKind::kAbort) {
    ::fdatasync(fd_);
    ++syncs_;
  }
  return true;
}

std::uint64_t DeltaJournal::appendCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

std::uint64_t DeltaJournal::syncCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return syncs_;
}

bool DeltaJournal::replay(const std::string& path, std::uint64_t baseHash,
                          std::vector<DeltaRecord>* out, std::string* error) {
  out->clear();
  std::vector<unsigned char> bytes;
  bool exists = false;
  if (!readFile(path, &bytes, &exists)) {
    if (error != nullptr) *error = "cannot read delta WAL: " + path;
    return false;
  }
  if (!exists || bytes.empty()) return true;
  return validPrefixLength(bytes, baseHash, error, out) >= 0;
}

DeltaLogFold foldDeltaLog(const std::vector<DeltaRecord>& records) {
  DeltaLogFold fold;
  std::optional<DeltaTxn> open;
  for (const DeltaRecord& rec : records) {
    if (rec.txid > fold.maxTxid) fold.maxTxid = rec.txid;
    switch (rec.kind) {
      case DeltaOpKind::kBegin:
        // A dangling earlier transaction (no commit/abort record) is
        // superseded: it can only exist in a log written by a crashed
        // process whose reopen appended the abort, so seeing a new begin
        // without one means the abort was lost to a torn tail — same
        // outcome, the transaction never committed.
        open = DeltaTxn{rec.txid, {}, 0};
        break;
      case DeltaOpKind::kAdd:
      case DeltaOpKind::kRetract:
        if (open && open->txid == rec.txid)
          open->ops.push_back(
              StagedOp{rec.kind == DeltaOpKind::kAdd, rec.stmt});
        break;
      case DeltaOpKind::kCommit:
        if (open && open->txid == rec.txid) {
          open->newHash = rec.newHash;
          fold.committed.push_back(std::move(*open));
          open.reset();
        }
        break;
      case DeltaOpKind::kAbort:
        if (open && open->txid == rec.txid) open.reset();
        break;
    }
  }
  fold.openTxn = std::move(open);
  return fold;
}

bool recoverDeltaState(const std::string& walPath, std::uint64_t baseHash,
                       const std::vector<std::string>& baseStatements,
                       DeltaRecovery* out, std::string* error) {
  std::vector<DeltaRecord> records;
  if (!DeltaJournal::replay(walPath, baseHash, &records, error)) return false;
  const DeltaLogFold fold = foldDeltaLog(records);

  out->statements = baseStatements;
  out->committedTxns = 0;
  out->hadOpenTxn = fold.openTxn.has_value();
  out->nextTxnId = fold.maxTxid + 1;
  out->finalHash = baseHash;

  for (const DeltaTxn& txn : fold.committed) {
    std::vector<std::string> stmts = out->statements;
    std::string why;
    if (!applyStagedOps(stmts, txn.ops, &why)) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " does not replay: " + why;
      return false;
    }
    TBox tbox;
    if (!buildTBoxFromStatements(stmts, tbox, &why)) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " rebuilds an unparseable ontology: " + why;
      return false;
    }
    const std::uint64_t hash = ontologyContentHash(tbox);
    if (hash != txn.newHash) {
      if (error != nullptr)
        *error = "delta WAL transaction " + std::to_string(txn.txid) +
                 " replays to a different ontology than it committed";
      return false;
    }
    // Regenerate exactly as the live commit path does, so later
    // transactions see the identical canonical list.
    out->statements = statementsFromTBox(tbox);
    out->finalHash = hash;
    ++out->committedTxns;
  }
  return true;
}

DeltaJournalSink::DeltaJournalSink(CheckpointConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {}

void DeltaJournalSink::setCrashInjector(CrashInjector* crash) {
  crash_ = crash;
  wal_.setCrashInjector(crash);
  if (mainMgr_ != nullptr) mainMgr_->setCrashInjector(crash);
}

bool DeltaJournalSink::open(std::uint64_t baseHash,
                            std::unique_ptr<CheckpointManager> mainMgr,
                            bool truncateWal, std::string* error) {
  mainMgr_ = std::move(mainMgr);
  if (!wal_.open(walPath(config_.dir), baseHash, truncateWal, error))
    return false;
  wal_.setCrashInjector(crash_);
  if (!truncateWal) {
    // A transaction left open by a crash is rolled back here, durably:
    // the caller may then re-apply it from its delta script.
    std::vector<DeltaRecord> records;
    if (!DeltaJournal::replay(walPath(config_.dir), baseHash, &records, error))
      return false;
    const DeltaLogFold fold = foldDeltaLog(records);
    if (fold.openTxn.has_value()) {
      DeltaRecord abort;
      abort.kind = DeltaOpKind::kAbort;
      abort.txid = fold.openTxn->txid;
      if (!wal_.append(abort, error)) return false;
    }
  }
  return true;
}

bool DeltaJournalSink::opBegin(std::uint32_t txid, std::string* error) {
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kBegin;
  rec.txid = txid;
  return wal_.append(rec, error);
}

bool DeltaJournalSink::opStage(std::uint32_t txid, bool isAdd,
                               const std::string& stmt, std::string* error) {
  DeltaRecord rec;
  rec.kind = isAdd ? DeltaOpKind::kAdd : DeltaOpKind::kRetract;
  rec.txid = txid;
  rec.stmt = stmt;
  return wal_.append(rec, error);
}

CheckpointHook* DeltaJournalSink::beginRerun(const TBox& /*newTbox*/,
                                             std::uint64_t /*seed*/,
                                             std::string* /*error*/) {
  rerunHook_ = std::make_unique<RerunCrashHook>(crash_);
  return rerunHook_.get();
}

bool DeltaJournalSink::opCommit(std::uint32_t txid, const TBox& newTbox,
                                const ClassifierCheckpoint& post,
                                std::string* error) {
  const std::uint64_t newHash = ontologyContentHash(newTbox);
  // 1. The commit's one snapshot write, staged and durable BEFORE the
  //    commit record: from that record on, recovery must find the
  //    post-delta state, and the main area is not re-anchored yet. Stale
  //    files there (a commit that failed after staging, an older build's
  //    rerun journal) go first.
  const std::string staging = rerunDir(config_.dir);
  std::error_code ec;
  fs::create_directories(staging, ec);
  std::vector<fs::path> stale;
  for (const auto& entry : fs::directory_iterator(staging, ec))
    stale.push_back(entry.path());
  for (const fs::path& path : stale) fs::remove_all(path, ec);
  const std::string staged = snapshotFilePath(staging, 0);
  if (!writeSnapshotFile(staged, post, newHash, seed_, error)) return false;
  // 2. The pre-commit drill dies here: no commit record, pre-delta result.
  if (crash_ != nullptr && crash_->crashPreCommitNow()) CrashInjector::crash();
  // 3. The commit record. Durable == committed.
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kCommit;
  rec.txid = txid;
  rec.newHash = newHash;
  if (!wal_.append(rec, error)) return false;
  // 4. The post-commit drill dies here: recovery re-anchors the main area
  //    from the staged snapshot.
  if (crash_ != nullptr && crash_->crashPostCommitNow()) CrashInjector::crash();
  // 5. Re-anchor: reset the main journal at the new hash and drop the old
  //    snapshots, THEN rename the staged snapshot in — after the rename the
  //    main area recovers on its own.
  auto mgr = std::make_unique<CheckpointManager>(config_, newHash, seed_);
  mgr->setCrashInjector(crash_);
  if (!mgr->beginFresh(error) || !mgr->adoptSnapshot(staged, error))
    return false;
  mainMgr_ = std::move(mgr);
  return true;
}

bool DeltaJournalSink::opAbort(std::uint32_t txid, std::string* error) {
  // The mid-rollback drill dies BEFORE the abort record: recovery sees an
  // open transaction, appends the abort itself, and the pre-delta anchors
  // are still in place.
  if (crash_ != nullptr && crash_->crashMidRollbackNow())
    CrashInjector::crash();
  DeltaRecord rec;
  rec.kind = DeltaOpKind::kAbort;
  rec.txid = txid;
  return wal_.append(rec, error);
}

bool DeltaJournalSink::flushFinal(const ClassifierCheckpoint& ckpt,
                                  std::string* error) {
  if (mainMgr_ == nullptr) {
    if (error != nullptr) *error = "no main checkpoint manager adopted";
    return false;
  }
  return mainMgr_->snapshotFinal(ckpt, error);
}

}  // namespace owlcl
