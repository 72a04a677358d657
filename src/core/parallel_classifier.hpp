// ParallelClassifier — the paper's contribution (Sections III + IV):
// three-phase parallel TBox classification over the shared atomic PkStore,
// with a pluggable reasoner and a pluggable execution substrate.
//
//   Phase 1  random division (Algorithms 1+2): the shuffled concept list is
//            split into w equal groups, one per worker; each worker tests
//            the concept pairs inside its group. Repeated for
//            config.randomCycles cycles with fresh shuffles.
//   Phase 2  group division (Algorithms 1+3): for every X with P_X ≠ ∅ a
//            group G_X = P_X is dispatched (round-robin by default) until
//            R_O = ∪ P_X is empty.
//   Phase 3  divide-and-conquer taxonomy construction (Algorithm 4):
//            per-concept partial hierarchies H_X in parallel, merged
//            top-down into the final Taxonomy.
//
// Section IV's pruneNonPossible (Algorithm 5) runs inside every symmetric
// pair test: a strict outcome B ⊑ A (with A ⋢ B) removes every Y ∈ K_B
// from P_A/K_A and removes A from P_Y — subsumptions inferred without
// invoking the reasoner. The unsound symmetric variants the paper refutes
// with counter-examples (Figs. 6–8) are deliberately NOT performed; tests
// encode those counter-examples.
//
// Fault tolerance: the plug-in is called through the tri-state try*()
// boundary (core/plugin.hpp) and is allowed to fail. A failed test keeps
// its pair *possible*, is recorded in the PkStore retry ledger, and is
// requeued with capped exponential backoff across division rounds; after
// maxRetries failures the pair is moved to the unresolved set and
// withdrawn, so classify() always terminates with a *sound* (possibly
// partial) taxonomy — every edge it asserts was either derived from a
// successful test or pruned by Algorithm 5 — plus an unresolvedPairs /
// unresolvedConcepts report. A fired executor cancellation token
// (watchdog) short-circuits remaining work the same way.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/checkpoint_hook.hpp"
#include "core/executor.hpp"
#include "core/pk_store.hpp"
#include "core/plugin.hpp"
#include "owl/tbox.hpp"
#include "parallel/sharded_counter.hpp"
#include "taxonomy/taxonomy.hpp"
#include "util/bitset.hpp"

namespace owlcl {

/// The reopened part of a delta rerun (DESIGN.md §14), computed by
/// computeAffectedCone (core/incremental.hpp). A concept's subsumers and
/// satisfiability are decided by its ⊥-module, and a module over old ∪
/// new contains both the old and the new module, so a concept outside the
/// cone keeps every verdict in its matrix *column* (who subsumes it) and
/// its sat status.
struct ConeResult {
  /// Concepts whose verdicts may change (new-id space, sorted): every
  /// concept whose ⊥-module over old ∪ new reaches a changed axiom, plus
  /// all concepts new in the rerun's TBox. Adding or retracting
  /// SubClassOf(L P) for a leaf L gives {L}. When `fullCone` is set,
  /// every concept.
  std::vector<ConceptId> cone;
  /// The always-module (axioms in every ⊥-module, e.g. with ⊤ on the
  /// left) reaches a changed axiom, so every module may have changed —
  /// the whole ontology is the cone.
  bool fullCone = false;
  /// Told axioms in the symmetric difference (by canonical text).
  std::size_t changedAxioms = 0;
  /// mod_⊥(cone): per told axiom of the rerun's TBox, whether it lies in
  /// the cone's ⊥-module. Empty when `fullCone` (every axiom does).
  std::vector<std::uint8_t> moduleAxioms;
  /// The concepts of that module's signature (every concept when
  /// `fullCone`). Every axiom outside the module is ⊥-local w.r.t. it.
  DynamicBitset moduleConcepts;
};

/// Hybrid EL/tableau routing policy (DESIGN.md §13).
enum class ElRouting : std::uint8_t {
  kOff = 0,  ///< tableau-only (the paper's architecture, unchanged)
  kAuto,     ///< route when EL-safe axioms outnumber the non-EL residual
  kOn,       ///< always run the routing phase
};

struct ClassifierConfig {
  /// Number of random-division cycles before the group-division phase
  /// (the paper's Fig. 11 load-balancing experiment varies this).
  std::size_t randomCycles = 2;
  /// Shuffle seed — classification work assignment is fully deterministic
  /// given (seed, workers).
  std::uint64_t seed = 42;
  /// Algorithm 5 pruning on strict subsumption outcomes.
  bool enablePruning = true;
  /// Section IV symmetric testing: resolve both directions of a pair with
  /// one claim. When false, Algorithms 2/3 run verbatim (one direction per
  /// claim, no pruning).
  bool symmetricTests = true;
  /// Extension (ablation): seed K with the *transitive closure* of the
  /// told atomic subclass/equivalence axioms before phase 1 — one
  /// word-level Algorithm-5-style sweep marks every structurally entailed
  /// ordered pair tested, so those pairs never reach the division test
  /// loops. Sound: every seeded edge is told-entailed (DESIGN.md §10).
  bool toldSeeding = false;
  /// Extension (ROADMAP item 3): hybrid EL/tableau routing. Before phase
  /// 1, the maximal EL sub-ontology (owl/el_fragment.hpp) is saturated
  /// once by the EL reasoner on the coordinating thread; the derived
  /// subsumption closure is bulk-seeded into K, definite non-subsumptions
  /// and satisfiability verdicts are recorded for *pure* concepts (whose
  /// ⊥-module is all-EL), and the division phases then only test pairs
  /// with at least one non-EL concept. Byte-identical taxonomy to kOff.
  ElRouting routeEl = ElRouting::kOff;
  /// Delta rerun (DESIGN.md §14): the cone whose columns the resumed image
  /// reopened. A resume with a cone routes only the cone columns, over
  /// the EL axioms of the cone's ⊥-module, and settles a satisfiable cone
  /// concept's column outside the module signature before group division.
  /// Crash-recovery resumes leave it null: their routed verdicts are in
  /// the replayed journal. Must outlive the run.
  const ConeResult* rerunCone = nullptr;
  /// Group-division dispatch discipline. kSteal (default) hands tasks to
  /// the executor unpinned and lets work-stealing balance them; the
  /// paper's round-robin (Section III-A2) and the other disciplines remain
  /// available for the scheduling ablation.
  SchedulingPolicy scheduling = SchedulingPolicy::kSteal;
  /// Under kSteal, large groups are split into chunks of roughly this many
  /// pair tests so idle workers can steal partial groups. Small enough to
  /// balance, large enough that per-chunk dispatch cost stays noise.
  std::size_t stealChunkPairs = 512;
  /// Compute backend for the P/K bit-matrix kernels and the seeding/
  /// routing mask fixpoints (parallel/bit_kernels.hpp). Null binds the
  /// process-wide activeBitKernels() — the --bit-backend selection; the
  /// differential suites pin explicit backends to compare taxonomies.
  const BitKernels* bitKernels = nullptr;

  // --- fault tolerance -------------------------------------------------------
  /// Failed plug-in calls per test key before the pair/concept is given up
  /// as unresolved (maxRetries retries after the initial attempt).
  std::size_t maxRetries = 3;
  /// Cap, in division rounds, for the exponential retry backoff.
  std::size_t backoffCapRounds = 8;
  /// Whole-run watchdog budget in executor time (wall for RealExecutor,
  /// virtual for VirtualExecutor); 0 = no watchdog. When it fires, the
  /// run degrades: remaining pairs become unresolved.
  std::uint64_t watchdogBudgetNs = 0;

  // --- crash safety ----------------------------------------------------------
  /// Optional checkpoint sink (robust/checkpoint.hpp): settled verdicts
  /// are journaled as they happen and the full state is offered for a
  /// snapshot at every epoch barrier. Must outlive the classifier run.
  CheckpointHook* checkpoint = nullptr;
};

/// Verdict of a (possibly mid-run) subsumption query "is sub ⊑ sup?".
enum class PairVerdict : std::uint8_t {
  kUnknown = 0,  // not yet settled — wait for an epoch or fall back
  kSubsumed,
  kNotSubsumed,
  kUnresolved,  // given up within the fault budget — fall back to a direct test
};

/// Verdict of a (possibly mid-run) satisfiability query.
enum class SatVerdict : std::uint8_t {
  kUnknown = 0,
  kSatisfiable,
  kUnsatisfiable,
  kUnresolved,
};

struct CycleStats {
  enum class Phase : std::uint8_t {
    kRandomDivision,
    kGroupDivision,
    kHierarchy,
    kRouting,  // EL-fragment saturation + seeding, before phase 1
  };
  Phase phase;
  std::size_t index;              // cycle number within its phase
  std::size_t possibleBefore;     // |R_O| before the cycle
  std::size_t possibleAfter;      // |R_O| after the cycle
  std::uint64_t elapsedNs;        // barrier-to-barrier elapsed
  std::uint64_t reasonerTests;    // sat? + subs? calls during the cycle
};

struct ClassificationResult {
  Taxonomy taxonomy{0};
  std::vector<CycleStats> cycles;
  std::size_t initialPossible = 0;  // the paper's InitialPossible
  std::uint64_t elapsedNs = 0;      // total elapsed (paper: "elapsed time")
  std::uint64_t busyNs = 0;         // Σ worker runtimes (paper: "runtime")
  std::uint64_t satTests = 0;
  std::uint64_t subsumptionTests = 0;
  std::uint64_t prunedWithoutTest = 0;  // pairs resolved by Algorithm 5
  std::uint64_t seededWithoutTest = 0;  // pairs resolved by told seeding

  // --- hybrid EL/tableau routing report (DESIGN.md §13) ----------------------
  /// Pure-EL concepts the router owns outright (⊥-module all-EL); 0 when
  /// routing did not run.
  std::uint64_t routedConcepts = 0;
  /// K edges bulk-seeded from the EL saturation closure (claims won).
  std::uint64_t saturationSeeded = 0;
  /// Reasoner calls the routing phase made unnecessary: ordered pair
  /// claims won by the positive + negative seeding sweeps, plus sat?()
  /// verdicts taken straight from the saturation fixpoint.
  std::uint64_t testsAvoidedByRouting = 0;
  /// Told axioms the routing saturation consumed: the whole EL fragment on
  /// a fresh run, the EL axioms of the cone's ⊥-module on a delta rerun.
  std::uint64_t routedAxioms = 0;

  /// Reasoner calls actually performed this run.
  std::uint64_t testsPerformed() const { return satTests + subsumptionTests; }
  /// Tests resolved without a reasoner call (Algorithm 5 pruning,
  /// told-subsumption seeding, EL-fragment routing).
  std::uint64_t testsAvoided() const {
    return prunedWithoutTest + seededWithoutTest + testsAvoidedByRouting;
  }

  // --- reasoner-engine report (plug-ins exposing engine internals) -----------
  std::uint64_t reasonerSatCalls = 0;   // engine label evaluations
  std::uint64_t reasonerCacheHits = 0;  // private memo hits
  std::uint64_t reasonerClashes = 0;
  std::uint64_t crossCacheHits = 0;  // shared sat-cache verdicts reused
  std::uint64_t mergeRefuted = 0;    // subs tests refuted by model merging
  std::uint64_t cacheInserts = 0;        // shared sat-cache slots won
  std::uint64_t cacheRejectedFull = 0;   // inserts shed: probe window full
  std::uint64_t cacheRejectedLong = 0;   // inserts shed: label too long

  // --- fault-tolerance report ------------------------------------------------
  std::uint64_t failedTests = 0;   // plug-in calls that returned kFailed
  std::uint64_t retriedTests = 0;  // calls that were retries of failed keys
  /// Ordered tests subs?(sup, sub) that exhausted retries (or were cut off
  /// by cancellation): "is sub ⊑ sup" is UNKNOWN in this result. Sorted.
  std::vector<std::pair<ConceptId, ConceptId>> unresolvedPairs;
  /// Concepts whose sat?() never got a verdict; placed in the taxonomy as
  /// if satisfiable, with only their successfully derived edges. Sorted.
  std::vector<ConceptId> unresolvedConcepts;
  /// The executor's cancellation token fired (watchdog / explicit cancel).
  bool cancelled = false;
  /// requestStop() paused the run at an epoch barrier with work remaining:
  /// nothing was drained to unresolved and NO taxonomy was built — the
  /// state is exactly what captureCheckpoint() should flush for a later
  /// resume (the serving layer's graceful-drain path).
  bool paused = false;

  /// True iff every pair was resolved: the taxonomy is the complete
  /// classification, not a degraded partial one.
  bool complete() const {
    return !paused && unresolvedPairs.empty() && unresolvedConcepts.empty();
  }

  /// The paper's speedup metric: runtime / elapsed time (Section V-A).
  double speedup() const {
    return elapsedNs == 0 ? 0.0
                          : static_cast<double>(busyNs) /
                                static_cast<double>(elapsedNs);
  }
};

class ParallelClassifier {
 public:
  /// `tbox` must be frozen; `plugin` must be thread-safe and answer w.r.t.
  /// the same TBox. Both must outlive the classifier.
  ParallelClassifier(const TBox& tbox, ReasonerPlugin& plugin,
                     ClassifierConfig config = {});

  /// Runs the full three-phase classification on `exec`.
  ClassificationResult classify(Executor& exec);

  /// Resumes a run from recovered checkpoint state (robust/checkpoint.hpp
  /// recover()): restores the PkStore image, advances the shuffle RNG past
  /// the completed random cycles (same seed ⇒ identical cursors), and
  /// continues from the recorded phase position. Work already settled is
  /// never re-tested (the tested matrix carries the claims); everything
  /// else proceeds exactly as an uninterrupted run would, so the final
  /// taxonomy is identical to one computed without the crash.
  ClassificationResult resumeClassify(Executor& exec,
                                      const ClassifierCheckpoint& from);

  /// Quiescent-only: true iff the store's maintained O(1) possible-set
  /// counters agree with a ground-truth recount. Bench/CI smoke hooks call
  /// this after classify() to pin the bulk-kernel counter invariant.
  bool countersConsistent() const { return store_.countersConsistent(); }

  // --- serving-path hooks ----------------------------------------------------
  // All of these are safe to call from query threads concurrently with a
  // classify()/resumeClassify() running on another thread. A pair is
  // *settled* once its P bit is clear; writers publish K before clearing P,
  // so a query that observes the clear also observes the verdict (or — for
  // Algorithm 5 indirect prunes — a K witness chain, recovered here by an
  // upward reachability walk).

  /// Settled-pair subsumption query "is sub ⊑ sup?". kUnknown while the
  /// pair is still possible (or classification has not started).
  PairVerdict queryPair(ConceptId sup, ConceptId sub) const;

  /// Satisfiability status of `c` as far as the run has decided it.
  SatVerdict querySat(ConceptId c) const;

  /// Blocks until the pair settles, the run exits, or `deadline` — woken at
  /// every epoch barrier (pairs settling mid-cycle are observed at the next
  /// barrier). Returns the verdict as of wake-up (kUnknown on deadline).
  PairVerdict waitForPair(ConceptId sup, ConceptId sub,
                          std::chrono::steady_clock::time_point deadline) const;

  /// Blocks until sat?(c) is decided, the run exits, or `deadline` — same
  /// epoch-barrier wake discipline as waitForPair.
  SatVerdict waitForSat(ConceptId c,
                        std::chrono::steady_clock::time_point deadline) const;

  /// Blocks until the run exits (true) or `deadline` passes (false).
  bool waitForCompletion(std::chrono::steady_clock::time_point deadline) const;

  /// True once classify()/resumeClassify() initialised the store (queries
  /// before that point answer kUnknown — P is not yet populated).
  bool started() const { return started_.load(std::memory_order_acquire); }
  /// True once the run() call has returned (completed, cancelled or paused).
  bool finished() const { return finished_.load(std::memory_order_acquire); }
  /// Barrier clock (division rounds completed so far).
  std::size_t currentEpoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Approximate |R_O| for status reports (exact at barriers).
  std::size_t remainingPossible() const { return store_.remainingPossible(); }
  std::size_t conceptCount() const { return store_.conceptCount(); }

  /// Quiescent pause: asks the run to stop at the next epoch barrier
  /// WITHOUT draining possible pairs to unresolved (unlike cancellation),
  /// so captureCheckpoint() + a later resumeClassify() continues exactly
  /// where this run stopped. The serving layer's graceful-drain path.
  void requestStop() { stopRequested_.store(true, std::memory_order_relaxed); }
  bool stopRequested() const {
    return stopRequested_.load(std::memory_order_relaxed);
  }

  /// Quiescent-only (run() has returned, or never started): the full state
  /// image plus the progress cursor of the last completed barrier — what a
  /// graceful shutdown flushes as the final snapshot.
  ClassifierCheckpoint captureCheckpoint() const;

 private:
  ClassificationResult run(Executor& exec, const ClassifierCheckpoint* from);

  // Checkpoint plumbing (no-ops when config_.checkpoint is null).
  void settle(SettledKind kind, ConceptId x, ConceptId y);
  // One verdict per set bit of `row` (ascending), handed over as one row.
  void settleRow(SettledKind kind, ConceptId x, const DynamicBitset& row);
  void notifyBarrier(std::uint64_t completedCycles,
                     std::uint64_t completedRounds);
  // Bumps the division-round clock and wakes epoch waiters (waitForPair /
  // waitForCompletion re-check their pair after every barrier).
  void advanceEpoch();
  void signalProgress() const;
  // Pair/test primitives shared by both division phases.
  enum class SatResult : std::uint8_t { kSat, kUnsat, kDeferred };
  SatResult ensureSat(ConceptId c, std::uint64_t& cost);
  void testPairSymmetric(ConceptId a, ConceptId b, std::uint64_t& cost);
  void testOrdered(ConceptId x, ConceptId y, std::uint64_t& cost);
  void pruneAfterStrict(ConceptId super, ConceptId sub);

  // Failure handling: runs the already-claimed ordered test subs?(x, y)
  // and records its outcome; on failure updates the retry ledger and
  // either releases the claim (retry later) or gives the pair up.
  TestOutcome runClaimedSubsTest(ConceptId x, ConceptId y, std::uint64_t& cost);
  void noteSubsFailure(ConceptId x, ConceptId y);
  void noteSatFailure(ConceptId c);
  void giveUpOnConcept(ConceptId c);
  void drainPossibleToUnresolved();

  void seedTold();
  // `cone` non-null: a delta rerun's module-local routing (DESIGN.md §14).
  void routeElFragment(Executor& exec, ClassificationResult& result,
                       const ConeResult* cone);
  void settleOutsideModule(Executor& exec, const ConeResult& cone);
  void runRandomCycle(Executor& exec, std::size_t cycleIndex,
                      std::vector<ConceptId>& order,
                      ClassificationResult& result);
  void runGroupRound(Executor& exec, std::size_t roundIndex,
                     ClassificationResult& result);
  void buildHierarchy(Executor& exec, ClassificationResult& result);

  const TBox& tbox_;
  ReasonerPlugin& plugin_;
  ClassifierConfig config_;
  PkStore store_;

  // Hot-path statistics, sharded over cache-line-padded per-thread slots
  // (every worker bumps these on every pair test; a single atomic would
  // bounce its line across all cores). Exact at executor barriers.
  ShardedCounter satTests_;
  ShardedCounter subsTests_;
  ShardedCounter pruned_;
  ShardedCounter failedTests_;
  ShardedCounter retriedTests_;
  /// Ordered pairs resolved by the told-seeding sweep. Written once,
  /// single-threaded, before phase 1 — no sharding needed.
  std::uint64_t seeded_ = 0;
  /// Routing-phase report (written single-threaded after the saturation
  /// barrier, before phase 1): pure-EL concept count, K claims won by the
  /// closure sweep, and total reasoner calls made unnecessary.
  std::uint64_t routedConcepts_ = 0;
  std::uint64_t routeSeeded_ = 0;
  std::uint64_t routeAvoided_ = 0;
  std::uint64_t routedAxioms_ = 0;
  /// Division-round clock for the retry backoff: incremented after every
  /// random cycle and group round (barrier-separated from the tasks that
  /// read it).
  std::atomic<std::size_t> epoch_{0};

  // Serving-path state: lifecycle flags, the progress cursor of the last
  // completed barrier (for captureCheckpoint), and the epoch-wait channel.
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  std::atomic<bool> stopRequested_{false};
  std::atomic<std::uint64_t> progressCycles_{0};
  std::atomic<std::uint64_t> progressRounds_{0};
  mutable std::mutex epochMu_;
  mutable std::condition_variable epochCv_;
};

}  // namespace owlcl
