// Delta write-ahead log + transaction sink (DESIGN.md §14).
//
// Every delta transaction is journaled to `deltas.wal` in the checkpoint
// directory before it commits, so a crash at any stage recovers to exactly
// the pre-delta or the post-delta ontology — never a hybrid:
//
//   deltas.wal     — begin / add / retract / commit / abort records,
//                    CRC32-protected, torn-tail tolerant. Only commit and
//                    abort records are force-synced: a transaction is
//                    committed iff its commit record is durable, and that
//                    sync covers the earlier records of the same file.
//   delta-rerun/   — where a commit stages its one snapshot write (the
//                    post-delta state), durable before the commit record.
//                    The cone rerun itself does no I/O.
//   <main area>    — journal.wal + ckpt-*.snap of the committed
//                    generation, re-anchored by opCommit() only AFTER the
//                    commit record is durable, by renaming the staged
//                    snapshot in; until then delta-rerun/ covers a crash.
//
// File layout of deltas.wal (little-endian):
//   header : magic "OWLDLTA1" | u32 version | u64 baseHash |
//            u32 crc(first 20 bytes)                      — 24 bytes
//   record : u8 kind | u8×3 zero | u32 txid | u32 len | payload |
//            u32 crc(preceding 12+len bytes)
// Payload: the canonical statement text (kAdd/kRetract), the u64
// post-commit ontology hash (kCommit), empty otherwise. `baseHash` is the
// GENERATION-0 ontology hash — replay re-derives every later hash.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "robust/checkpoint.hpp"

namespace owlcl {

class CrashInjector;

enum class DeltaOpKind : std::uint8_t {
  kBegin = 1,
  kAdd = 2,
  kRetract = 3,
  kCommit = 4,
  kAbort = 5,
};

struct DeltaRecord {
  DeltaOpKind kind = DeltaOpKind::kBegin;
  std::uint32_t txid = 0;
  std::string stmt;            // kAdd / kRetract: canonical statement text
  std::uint64_t newHash = 0;   // kCommit: post-delta ontology hash
};

class DeltaJournal {
 public:
  static constexpr std::size_t kHeaderBytes = 24;

  DeltaJournal() = default;
  ~DeltaJournal();
  DeltaJournal(const DeltaJournal&) = delete;
  DeltaJournal& operator=(const DeltaJournal&) = delete;

  /// Opens `path` for appending. A missing/empty file gets a fresh header;
  /// an existing one must match (version, baseHash) and is truncated back
  /// to its last valid record. `truncate` recreates from scratch.
  bool open(const std::string& path, std::uint64_t baseHash, bool truncate,
            std::string* error);
  bool isOpen() const { return fd_ >= 0; }
  void close();

  /// Appends one record. Commit and abort records are fdatasync'd before
  /// return (that one sync also makes the transaction's earlier records
  /// durable); begin/add/retract records are not. Consults the
  /// kDeltaTornWrite crash point.
  bool append(const DeltaRecord& rec, std::string* error);

  std::uint64_t appendCount() const;
  /// fdatasync calls made on the log since open() (header included).
  std::uint64_t syncCount() const;
  void setCrashInjector(CrashInjector* crash) { crash_ = crash; }

  /// Reads every valid record, stopping at the first torn/corrupt one. A
  /// missing file yields zero records and returns true.
  static bool replay(const std::string& path, std::uint64_t baseHash,
                     std::vector<DeltaRecord>* out, std::string* error);

 private:
  bool writeHeader(std::uint64_t baseHash, std::string* error);

  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  CrashInjector* crash_ = nullptr;
};

/// One transaction reconstructed from the log.
struct DeltaTxn {
  std::uint32_t txid = 0;
  std::vector<StagedOp> ops;
  std::uint64_t newHash = 0;  // committed transactions only
};

struct DeltaLogFold {
  std::vector<DeltaTxn> committed;  // in commit order
  /// Begun but neither committed nor aborted (the process died mid-
  /// transaction). Recovery treats it as rolled back.
  std::optional<DeltaTxn> openTxn;
  std::uint32_t maxTxid = 0;
};
DeltaLogFold foldDeltaLog(const std::vector<DeltaRecord>& records);

/// Replays `walPath` over the generation-0 statement list: applies each
/// committed transaction in order, regenerating the canonical list after
/// every one (exactly as the live commit path does), and cross-checks the
/// rebuilt ontology hash against each commit record. False with *error on
/// I/O failure, header mismatch, inapplicable ops, or a hash mismatch.
struct DeltaRecovery {
  std::vector<std::string> statements;  // post-committed canonical list
  std::size_t committedTxns = 0;
  bool hadOpenTxn = false;
  std::uint32_t nextTxnId = 1;
  std::uint64_t finalHash = 0;  // hash of `statements`' ontology
};
bool recoverDeltaState(const std::string& walPath, std::uint64_t baseHash,
                       const std::vector<std::string>& baseStatements,
                       DeltaRecovery* out, std::string* error);

/// DeltaTxnSink over deltas.wal + the checkpoint areas described above.
class DeltaJournalSink : public DeltaTxnSink {
 public:
  /// `config.dir` is the main checkpoint directory; commits stage their
  /// snapshot in its `delta-rerun/` subdirectory.
  DeltaJournalSink(CheckpointConfig config, std::uint64_t seed);

  /// Adopts the main-area manager (already recovered or begun fresh by the
  /// caller) and opens deltas.wal. On reopen, a transaction left open by a
  /// crash gets its abort record appended here — recovery is then free to
  /// re-apply it from the caller's delta script. False on I/O failure.
  bool open(std::uint64_t baseHash, std::unique_ptr<CheckpointManager> mainMgr,
            bool truncateWal, std::string* error);

  void setCrashInjector(CrashInjector* crash);

  // DeltaTxnSink:
  bool opBegin(std::uint32_t txid, std::string* error) override;
  bool opStage(std::uint32_t txid, bool isAdd, const std::string& stmt,
               std::string* error) override;
  CheckpointHook* beginRerun(const TBox& newTbox, std::uint64_t seed,
                             std::string* error) override;
  bool opCommit(std::uint32_t txid, const TBox& newTbox,
                const ClassifierCheckpoint& post, std::string* error) override;
  bool opAbort(std::uint32_t txid, std::string* error) override;

  /// Graceful-shutdown flush through the CURRENT main manager (which
  /// commits may have replaced since the CLI created the original one).
  bool flushFinal(const ClassifierCheckpoint& ckpt, std::string* error);

  std::uint64_t walSyncs() const { return wal_.syncCount(); }

  static std::string walPath(const std::string& dir) {
    return dir + "/deltas.wal";
  }
  static std::string rerunDir(const std::string& dir) {
    return dir + "/delta-rerun";
  }

 private:
  CheckpointConfig config_;
  std::uint64_t seed_;
  DeltaJournal wal_;
  std::unique_ptr<CheckpointManager> mainMgr_;
  std::unique_ptr<CheckpointHook> rerunHook_;  // I/O-free, per rerun
  CrashInjector* crash_ = nullptr;
};

}  // namespace owlcl
