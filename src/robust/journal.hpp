// ResultJournal — the write-ahead result log of the crash-consistency
// layer (DESIGN.md §9). Every settled verdict (subsumption, non-
// subsumption, pruning, sat status, give-up) is appended as one fixed-size
// CRC32-protected record before the run moves on, so a crash loses at most
// the records that had not reached the file yet. Recovery replays the
// journal on top of the newest valid snapshot; records are idempotent
// PkStore transitions, so replaying an already-snapshotted prefix is
// harmless.
//
// File layout (little-endian):
//   header  : magic "OWLJRNL1" | u32 version | u64 ontologyHash |
//             u64 seed | u32 crc(first 28 bytes)   — 32 bytes
//   records : u8 kind | u8×3 zero | u32 x | u32 y | u32 epoch |
//             u32 crc(first 16 bytes)          — 20 bytes each
//
// Row appends: a row of verdicts settled together (told seeding, EL
// routing) is encoded into one buffer and handed to the kernel with one
// write() — the same records, in the same order, as one append per
// verdict. The crash-drill ordinals still count records, so an injected
// torn or post-append crash inside a row leaves exactly the bytes the
// per-record path would have left.
//
// Torn-write handling: a record is valid only if it is complete AND its
// CRC matches; replay stops at the first invalid record, and re-opening
// for append truncates the file back to the last valid record so new
// appends extend a clean prefix (a torn tail is never parsed as data).
//
// Fsync policy: kNever trusts the OS page cache (fastest, loses the most
// on power failure — process crashes still lose nothing once the kernel
// has the write); kEveryRecord makes each verdict durable before the call
// returns; kEveryBarrier syncs once per epoch barrier (the default:
// bounded loss, negligible cost).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "owl/ids.hpp"

namespace owlcl {

class CrashInjector;

enum class FsyncPolicy : std::uint8_t { kNever = 0, kEveryRecord, kEveryBarrier };

struct JournalRecord {
  SettledKind kind;
  ConceptId x = 0;
  ConceptId y = 0;
  std::uint32_t epoch = 0;
};

class ResultJournal {
 public:
  static constexpr std::size_t kHeaderBytes = 32;
  static constexpr std::size_t kRecordBytes = 20;

  ResultJournal() = default;
  ~ResultJournal();
  ResultJournal(const ResultJournal&) = delete;
  ResultJournal& operator=(const ResultJournal&) = delete;

  /// Opens `path` for appending. A missing/empty file gets a fresh header;
  /// an existing file must carry a matching (version, ontologyHash, seed)
  /// header and is truncated back to its last valid record. With
  /// `truncate` the file is recreated from scratch (fresh runs).
  /// Returns false (with *error set) on I/O failure or header mismatch.
  bool open(const std::string& path, std::uint64_t ontologyHash,
            std::uint64_t seed, FsyncPolicy fsync, bool truncate,
            std::string* error);

  bool isOpen() const { return fd_ >= 0; }
  void close();

  /// Appends one record (thread-safe). Durability per the fsync policy.
  void append(SettledKind kind, ConceptId x, ConceptId y, std::uint32_t epoch);

  /// Appends one ⟨kind, x, y, epoch⟩ record per set bit y of
  /// `words[0, nwords)`, ascending, with one write() (thread-safe; the row
  /// is never interleaved with other appends). Durability per the fsync
  /// policy; the records are byte-identical to appending them one by one.
  void appendRow(SettledKind kind, ConceptId x, const std::uint64_t* words,
                 std::size_t nwords, std::uint32_t epoch);

  /// Forces buffered records to disk (kEveryBarrier calls this at epoch
  /// barriers; harmless under the other policies).
  void sync();

  /// Records appended through this handle (not counting replayed ones).
  std::uint64_t appendCount() const;

  /// write() calls that carried those records: one per append(), one per
  /// non-empty appendRow().
  std::uint64_t writeCount() const;

  /// Process-death injection for the crash drills (may be null).
  void setCrashInjector(CrashInjector* crash) { crash_ = crash; }

  /// Reads every valid record of `path`, stopping at the first torn or
  /// corrupt one. A missing file yields zero records and returns true; an
  /// existing file with a bad or mismatched header returns false.
  static bool replay(const std::string& path, std::uint64_t ontologyHash,
                     std::uint64_t seed, std::vector<JournalRecord>* out,
                     std::string* error);

 private:
  bool writeHeader(std::uint64_t ontologyHash, std::uint64_t seed,
                   std::string* error);
  /// The one record write path: `count` encoded records from `buf`, with
  /// the crash-drill ordinals checked per record. Caller holds mu_.
  void writeRecords(const unsigned char* buf, std::size_t count);

  mutable std::mutex mu_;
  int fd_ = -1;
  FsyncPolicy fsync_ = FsyncPolicy::kEveryBarrier;
  std::uint64_t appends_ = 0;
  std::uint64_t writes_ = 0;
  CrashInjector* crash_ = nullptr;
};

}  // namespace owlcl
