// Checkpoint boundary between the classifier (core) and the
// crash-consistency subsystem (robust/checkpoint.hpp): core emits settled
// verdicts and quiescent state captures through this interface without
// depending on any file format, and robust implements it with a
// write-ahead journal plus atomic snapshot files (DESIGN.md §9).
//
// Threading contract: recordSettled() / recordSettledRow() are called from
// worker threads as verdicts settle and must be thread-safe; epochBarrier()
// is called from the coordinating thread strictly between executor
// barriers, when no worker holds claims and the PkStore counters are exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "core/pk_store.hpp"
#include "owl/ids.hpp"
#include "util/bitset.hpp"

namespace owlcl {

/// The verdict/transition kinds a classification run settles. These are
/// exactly the state transitions a journal replay must re-apply: every
/// kind maps to an idempotent PkStore mutation.
enum class SettledKind : std::uint8_t {
  kSubsumption = 1,         // K_x += y, P_x -= y, tested(x,y)
  kNonSubsumption = 2,      // P_x -= y, tested(x,y)
  kPruneIndirect = 3,       // P_x -= y, K_x -= y, tested(x,y) (Algorithm 5)
  kSatTrue = 4,             // sat(x) := satisfiable
  kSatFalse = 5,            // sat(x) := unsatisfiable + unsat erasure
  kUnresolvedPair = 6,      // ⟨x,y⟩ withdrawn from P into the unresolved set
  kUnresolvedConcept = 7,   // sat?(x) given up
};

/// Where a run stands at an epoch barrier. `completedCycles` /
/// `completedRounds` are *finished* units of phase 1 / phase 2+: a resumed
/// run skips that many random cycles (re-shuffling to advance the RNG
/// cursor identically) and continues the round numbering from there.
struct ClassifierProgress {
  std::uint64_t completedCycles = 0;
  std::uint64_t completedRounds = 0;
  std::uint64_t epoch = 0;  // division-round clock (retry backoff base)
};

/// Full quiescent classification state: progress cursor + the PkStore
/// image (P/K/tested words, sat statuses, retry ledger, unresolved sets).
struct ClassifierCheckpoint {
  ClassifierProgress progress;
  PkStoreImage store;
};

class CheckpointHook {
 public:
  virtual ~CheckpointHook() = default;

  /// A verdict settled during epoch `epoch`. Thread-safe; called on the
  /// hot path (implementations keep it to an append + optional fsync).
  virtual void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                             std::uint64_t epoch) = 0;

  /// A whole row of verdicts settled at once (told seeding, EL routing):
  /// one ⟨kind, x, y⟩ verdict for every set bit y of `words[0, nwords)`.
  /// The default reports them through recordSettled() one at a time in
  /// ascending y, so a hook that only implements the per-verdict call sees
  /// exactly the stream it would have seen bit by bit. Overrides must keep
  /// that order and per-verdict meaning; they only batch the I/O.
  virtual void recordSettledRow(SettledKind kind, ConceptId x,
                                const std::uint64_t* words, std::size_t nwords,
                                std::uint64_t epoch) {
    forEachSetBitInWords(words, nwords, [&](std::size_t y) {
      recordSettled(kind, x, static_cast<ConceptId>(y), epoch);
    });
  }

  /// An epoch barrier completed. `capture` materializes the full state
  /// image on demand — implementations that skip this barrier (snapshot
  /// cadence) never pay for the copy.
  virtual void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) = 0;
};

}  // namespace owlcl
