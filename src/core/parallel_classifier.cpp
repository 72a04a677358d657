#include "core/parallel_classifier.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "elcore/el_reasoner.hpp"
#include "owl/el_fragment.hpp"
#include "util/rng.hpp"

namespace owlcl {

ParallelClassifier::ParallelClassifier(const TBox& tbox, ReasonerPlugin& plugin,
                                       ClassifierConfig config)
    : tbox_(tbox),
      plugin_(plugin),
      config_(config),
      store_(tbox.conceptCount(), config.bitKernels) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "freeze the TBox before classification");
}

void ParallelClassifier::settle(SettledKind kind, ConceptId x, ConceptId y) {
  if (config_.checkpoint != nullptr)
    config_.checkpoint->recordSettled(kind, x, y,
                                      epoch_.load(std::memory_order_relaxed));
}

void ParallelClassifier::settleRow(SettledKind kind, ConceptId x,
                                   const DynamicBitset& row) {
  if (config_.checkpoint != nullptr)
    config_.checkpoint->recordSettledRow(
        kind, x, row.words(), row.wordCountUsed(),
        epoch_.load(std::memory_order_relaxed));
}

void ParallelClassifier::notifyBarrier(std::uint64_t completedCycles,
                                       std::uint64_t completedRounds) {
  // Progress cursor for captureCheckpoint(): always tracked, even without
  // a checkpoint hook attached.
  progressCycles_.store(completedCycles, std::memory_order_relaxed);
  progressRounds_.store(completedRounds, std::memory_order_relaxed);
  if (config_.checkpoint == nullptr) return;
  const ClassifierProgress progress{completedCycles, completedRounds,
                                    epoch_.load(std::memory_order_relaxed)};
  config_.checkpoint->epochBarrier(progress, [this, progress] {
    ClassifierCheckpoint c;
    c.progress = progress;
    c.store = store_.captureImage();
    return c;
  });
}

void ParallelClassifier::advanceEpoch() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
  signalProgress();
}

void ParallelClassifier::signalProgress() const {
  // Empty critical section: pairs the notify with waiters whose predicate
  // reads the atomics, so a wake between predicate check and wait is
  // impossible.
  { std::lock_guard<std::mutex> lock(epochMu_); }
  epochCv_.notify_all();
}

ParallelClassifier::SatResult ParallelClassifier::ensureSat(
    ConceptId c, std::uint64_t& cost) {
  const SatStatus st = store_.satStatus(c);
  if (st == SatStatus::kSat) return SatResult::kSat;
  if (st == SatStatus::kUnsat) return SatResult::kUnsat;

  // Unknown: at most one worker computes it; a failed attempt backs off.
  if (!store_.retryEligible(c, c, epoch_.load(std::memory_order_relaxed)))
    return SatResult::kDeferred;
  if (!store_.claimSat(c)) {
    // Another worker holds (or held) the computation; use whatever status
    // it published, else defer this pair to a later round.
    switch (store_.satStatus(c)) {
      case SatStatus::kSat:
        return SatResult::kSat;
      case SatStatus::kUnsat:
        return SatResult::kUnsat;
      case SatStatus::kUnknown:
        return SatResult::kDeferred;
    }
  }

  std::uint64_t ns = 0;
  if (store_.hasFailures() && store_.failureAttempts(c, c) > 0)
    retriedTests_.add();
  const TestVerdict v = plugin_.trySatisfiable(c, &ns);
  cost += ns;
  satTests_.add();
  if (!v.ok()) {
    noteSatFailure(c);
    return SatResult::kDeferred;
  }
  store_.setSatStatus(c, v.value());
  if (!v.value()) store_.eraseUnsatConcept(c);
  settle(v.value() ? SettledKind::kSatTrue : SettledKind::kSatFalse, c, c);
  return v.value() ? SatResult::kSat : SatResult::kUnsat;
}

TestOutcome ParallelClassifier::runClaimedSubsTest(ConceptId x, ConceptId y,
                                                   std::uint64_t& cost) {
  std::uint64_t ns = 0;
  if (store_.hasFailures() && store_.failureAttempts(x, y) > 0)
    retriedTests_.add();
  const TestVerdict v = plugin_.trySubsumedBy(y, x, &ns);  // subs?(x,y): y ⊑ x?
  cost += ns;
  subsTests_.add();
  if (!v.ok()) {
    noteSubsFailure(x, y);
    return TestOutcome::kFailed;
  }
  if (v.value()) {
    store_.recordSubsumption(x, y);
    settle(SettledKind::kSubsumption, x, y);
  } else {
    store_.recordNonSubsumption(x, y);
    settle(SettledKind::kNonSubsumption, x, y);
  }
  return v.outcome;
}

void ParallelClassifier::noteSubsFailure(ConceptId x, ConceptId y) {
  failedTests_.add();
  const std::size_t attempts =
      store_.recordFailure(x, y, epoch_.load(std::memory_order_relaxed),
                           config_.backoffCapRounds);
  if (attempts > config_.maxRetries) {
    // Retries exhausted: withdraw the pair (we still hold its claim) so
    // classification terminates; the verdict stays unknown.
    if (store_.markUnresolved(x, y)) settle(SettledKind::kUnresolvedPair, x, y);
  } else {
    store_.releaseClaim(x, y);  // pair stays possible → requeued later
  }
}

void ParallelClassifier::noteSatFailure(ConceptId c) {
  failedTests_.add();
  const std::size_t attempts =
      store_.recordFailure(c, c, epoch_.load(std::memory_order_relaxed),
                           config_.backoffCapRounds);
  if (attempts > config_.maxRetries)
    giveUpOnConcept(c);  // keeps the sat claim: nobody retries
  else
    store_.releaseSat(c);
}

void ParallelClassifier::giveUpOnConcept(ConceptId c) {
  // sat?(c) is undecidable within the fault budget. Degrade: treat c as
  // satisfiable-with-unknown-status (sound — only successfully derived
  // edges are ever asserted; if c were actually unsatisfiable, every
  // subsumption involving it is entailed anyway) and withdraw every
  // pending pair involving c so the run terminates.
  if (store_.markConceptUnresolved(c))
    settle(SettledKind::kUnresolvedConcept, c, c);
  store_.forEachPossible(c, [this, c](ConceptId y) {
    if (store_.markUnresolved(c, y)) settle(SettledKind::kUnresolvedPair, c, y);
  });
  // Column pass over row words (skipping rows whose O(1) possible-count is
  // already zero) instead of n individual possible(x, c) probes.
  store_.forEachPossibleInColumn(c, [this, c](ConceptId x) {
    if (x != c && store_.markUnresolved(x, c))
      settle(SettledKind::kUnresolvedPair, x, c);
  });
}

void ParallelClassifier::drainPossibleToUnresolved() {
  // Cancellation cut the run short: whatever is still possible will never
  // be tested. Runs between barriers — no worker holds claims here.
  const std::size_t n = store_.conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    store_.forEachPossible(x, [this, x](ConceptId y) {
      if (store_.markUnresolved(x, y))
        settle(SettledKind::kUnresolvedPair, x, y);
    });
  for (ConceptId c = 0; c < n; ++c)
    if (store_.satStatus(c) == SatStatus::kUnknown &&
        store_.markConceptUnresolved(c))
      settle(SettledKind::kUnresolvedConcept, c, c);
}

void ParallelClassifier::pruneAfterStrict(ConceptId super, ConceptId sub) {
  // Algorithm 5, Situations 2.3.1 + 2.3.2, for O ⊨ sub ⊑ super with
  // super ⋢ sub. Snapshot K_sub as raw words; concurrent growth of K_sub
  // is handled by whichever worker records those later subsumptions (it
  // reruns pruning). Thread-local scratch keeps this allocation-free
  // after each thread's first strict outcome.
  thread_local std::vector<std::uint64_t> ksub;
  thread_local std::vector<std::uint64_t> mask231;
  store_.knownRowWordsInto(sub, ksub);
  mask231.assign(ksub.size(), 0);
  bool anyIndirect = false;
  constexpr std::size_t kWordBits = 64;
  for (std::size_t w = 0; w < ksub.size(); ++w) {
    std::uint64_t v = ksub[w];
    while (v != 0) {
      const std::uint64_t bit = v & (~v + 1);
      v &= v - 1;
      const ConceptId y = static_cast<ConceptId>(
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bit)));
      if (y == super || y == sub) continue;
      // 2.3.2: super ⊑ y would force super ≡ sub ≡ y, contradicting
      // strictness — record the non-subsumption without a reasoner call.
      // (Sound even when y ≡ sub.) Inherently per-element: each y owns a
      // *different* row (y, super), so there is no common row to batch —
      // see DESIGN.md §10 on why 2.3.2 stays scalar.
      const bool clearedBackward = store_.claimTest(y, super);
      store_.recordNonSubsumption(y, super);
      settle(SettledKind::kNonSubsumption, y, super);
      if (clearedBackward) pruned_.add();
      // 2.3.1: y ⊑ sub ⊑ super, so y is an *indirect* subsumee of super —
      // collect it into a word mask and drop the whole batch from
      // P_super/K_super below with O(n/64) atomic RMWs.
      //
      // Equivalence guard: if y ≡ sub (sub ∈ K_y), y sits at sub's own
      // level and is a *direct* subsumee — skip. This also closes a
      // concurrency hole: two workers strict-testing (super, sub) and
      // (super, y) with sub ≡ y could otherwise prune each other's
      // K_super records (mutual destruction). The guard is race-free:
      // each worker's prune candidate comes from a K snapshot taken after
      // the equivalence's first direction was recorded, so at least one
      // worker observes the second direction and skips (the acq_rel bit
      // operations order the reads).
      if (!store_.known(y, sub)) {
        mask231[w] |= bit;
        anyIndirect = true;
      }
    }
  }
  if (!anyIndirect) return;
  // All of row super's 2.3.1 transitions in one word sweep: claim tested,
  // clear P, clear K. The claimed-bit count preserves the scalar path's
  // pruned_ accounting exactly (only freshly claimed pairs count).
  const std::size_t claimed =
      store_.pruneIndirectRow(super, mask231.data(), mask231.size());
  if (claimed != 0) pruned_.add(claimed);
  if (config_.checkpoint != nullptr) {
    for (std::size_t w = 0; w < mask231.size(); ++w) {
      std::uint64_t v = mask231[w];
      while (v != 0) {
        const ConceptId y = static_cast<ConceptId>(
            w * kWordBits + static_cast<std::size_t>(std::countr_zero(v)));
        v &= v - 1;
        settle(SettledKind::kPruneIndirect, super, y);
      }
    }
  }
}

void ParallelClassifier::testPairSymmetric(ConceptId a, ConceptId b,
                                           std::uint64_t& cost) {
  // Quick reject: both directions already resolved.
  if (!store_.possible(a, b) && !store_.possible(b, a)) return;
  // Unsat erases the pair; a deferred (failed/backing-off) sat test keeps
  // it possible for a later round.
  if (ensureSat(a, cost) != SatResult::kSat) return;
  if (ensureSat(b, cost) != SatResult::kSat) return;

  // Claim each direction; a lost claim is being handled by another worker,
  // and a direction in retry backoff must not be re-attempted yet.
  const std::size_t round = epoch_.load(std::memory_order_relaxed);
  const bool claimAb =
      store_.retryEligible(a, b, round) && store_.claimTest(a, b);
  const bool claimBa =
      store_.retryEligible(b, a, round) && store_.claimTest(b, a);
  if (!claimAb && !claimBa) return;

  bool bUnderA = false, aUnderB = false;
  bool knowBUnderA = false, knowAUnderB = false;
  if (claimAb) {  // subs?(a,b): b ⊑ a?
    const TestOutcome o = runClaimedSubsTest(a, b, cost);
    if (o != TestOutcome::kFailed) {
      knowBUnderA = true;
      bUnderA = o == TestOutcome::kTrue;
    }
  }
  if (claimBa) {  // subs?(b,a): a ⊑ b?
    const TestOutcome o = runClaimedSubsTest(b, a, cost);
    if (o != TestOutcome::kFailed) {
      knowAUnderB = true;
      aUnderB = o == TestOutcome::kTrue;
    }
  }

  // Algorithm 5 pruning needs a *strict* outcome, i.e. both directions
  // known from this claim (Situation 2.3; 2.2 equivalence and 2.4 mutual
  // non-subsumption leave P/K as recorded above). A failed direction
  // yields no outcome, so no pruning happens on partial knowledge.
  if (!config_.enablePruning || !knowBUnderA || !knowAUnderB) return;
  if (bUnderA && !aUnderB)
    pruneAfterStrict(/*super=*/a, /*sub=*/b);
  else if (aUnderB && !bUnderA)
    pruneAfterStrict(/*super=*/b, /*sub=*/a);
}

void ParallelClassifier::testOrdered(ConceptId x, ConceptId y,
                                     std::uint64_t& cost) {
  // Algorithm 2/3 verbatim: test subs?(x, y) — is y ⊑ x — only.
  if (!store_.possible(x, y)) return;
  if (ensureSat(x, cost) != SatResult::kSat) return;
  if (ensureSat(y, cost) != SatResult::kSat) return;
  if (!store_.retryEligible(x, y, epoch_.load(std::memory_order_relaxed)))
    return;
  if (!store_.claimTest(x, y)) return;
  runClaimedSubsTest(x, y, cost);
}

void ParallelClassifier::seedTold() {
  // Extension: every told axiom A ⊑ B with both sides atomic is a known
  // subsumption, and so is every *composition* of such axioms — compute
  // the transitive closure of the told atomic subclass graph (equivalences
  // arrive pre-expanded into inclusion rings by TBox::freeze()) and seed K
  // with all of it, so structurally entailed pairs never reach the
  // division test loops at all. Runs single-threaded before phase 1.
  const ExprFactory& f = tbox_.exprs();
  const std::size_t n = store_.conceptCount();
  std::vector<std::vector<ConceptId>> subsOf(n);  // sup → told subsumees
  bool any = false;
  for (const SubClassAxiom& ax : tbox_.inclusions()) {
    if (f.kind(ax.lhs) != ExprKind::kAtom || f.kind(ax.rhs) != ExprKind::kAtom)
      continue;
    const ConceptId sub = f.node(ax.lhs).atom;
    const ConceptId sup = f.node(ax.rhs).atom;
    if (sub == sup) continue;
    subsOf[sup].push_back(sub);
    any = true;
  }
  if (!any) return;

  // Word-parallel closure fixpoint: closure[x] ⊇ {sub} ∪ closure[sub] for
  // every told edge sub ⊑ x. Each pass is one |= (O(n/64) words) per edge;
  // the pass count is bounded by the told hierarchy depth (cycles — told
  // equivalence rings — converge too, leaving x ∈ closure[x], which the
  // sweep strips below). Descending order tends to finish generated
  // corpora (children declared after parents) in two passes.
  std::vector<DynamicBitset> closure(n);
  for (ConceptId x = 0; x < n; ++x) {
    if (subsOf[x].empty()) continue;
    closure[x] = DynamicBitset(n);
    for (ConceptId sub : subsOf[x]) closure[x].set(sub);
  }
  const BitKernels& bk = store_.bitKernels();
  bool grew = true;
  while (grew) {
    grew = false;
    for (std::size_t xi = n; xi-- > 0;) {
      const ConceptId x = static_cast<ConceptId>(xi);
      if (closure[x].empty()) continue;
      for (ConceptId sub : subsOf[x]) {
        if (closure[sub].empty()) continue;
        if (bk.orInto(closure[x].mutableWords(), closure[sub].words(),
                      closure[x].wordCountUsed()))
          grew = true;
      }
    }
  }

  // Seeding sweep: apply each closure row to the store with three word
  // ops per word (claim tested, set K, clear P) — the word-level
  // Algorithm-5-style bulk transition. The diagonal is never seeded (a
  // told equivalence ring puts x into its own closure; X ⊑ X is already
  // claimed by initPossibleAll). Each row is journaled as one row of
  // per-pair records when a checkpoint hook is attached.
  std::uint64_t seeded = 0;
  for (ConceptId x = 0; x < n; ++x) {
    DynamicBitset& row = closure[x];
    if (row.empty()) continue;
    row.reset(x);
    if (row.none()) continue;
    seeded += store_.seedKnownRow(x, row.words(), row.wordCountUsed());
    settleRow(SettledKind::kSubsumption, x, row);
  }
  seeded_ = seeded;
}

void ParallelClassifier::routeElFragment(Executor& exec,
                                         ClassificationResult& result,
                                         const ConeResult* cone) {
  // Hybrid EL/tableau routing (DESIGN.md §13). Runs on the coordinating
  // thread between the genesis barrier and phase 1. Soundness:
  //  * the EL sub-ontology E is a subset of O, so every saturation-derived
  //    subsumption / unsatisfiability is entailed by O (monotonicity);
  //  * for *pure* concepts (⊥-module all-EL, mod ⊆ E ⊆ O) the module
  //    robustness of ⊥-locality makes E deductively conservative, so a
  //    NON-derived pure×pure subsumption is a definite non-subsumption
  //    and a saturation-satisfiable pure concept is satisfiable in O.
  // Byte parity with a tableau-only run: seeded K edges are full-closure
  // edges and the taxonomy builder computes direct children by
  // reachability with transitive reduction, exactly as for told seeding.
  // Every seeded row is first masked with the row's current P words, so
  // routing settles — and journals — only pairs still open: told-seeded
  // pairs on a fresh run, and the carried-over verdicts of a delta rerun,
  // are left as they are. A crash resume never re-routes — it replays the
  // journaled records and tableau-tests whatever was not yet seeded.
  //
  // A delta rerun (`cone` set, not full) has open pairs only in the cone
  // columns, so it routes module-locally (DESIGN.md §14): it saturates
  // only the EL axioms of the cone's ⊥-module, which holds the EL
  // ⊥-module of every cone concept and so derives exactly its subsumers
  // and satisfiability, and reads the saturation for cone concepts only.
  // Every other concept's satisfiability comes from the carried-over
  // image (settled before the delta, unchanged by it), its purity from
  // the whole-TBox partition; nothing outside the cone gets a status
  // from the module saturation.
  const std::uint64_t t0 = exec.elapsedNs();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();

  const ElPartition part = partitionElFragment(tbox_);
  if (part.elAxioms == 0) return;  // nothing to route
  if (config_.routeEl == ElRouting::kAuto && !part.majorityEl()) return;

  const std::size_t n = store_.conceptCount();
  const bool local = cone != nullptr && !cone->fullCone;
  std::vector<std::uint8_t> axiomMask = part.axiomEl;
  if (local)
    for (std::size_t i = 0; i < axiomMask.size(); ++i)
      axiomMask[i] &= cone->moduleAxioms[i];
  std::uint64_t routedAxioms = 0;
  for (std::size_t i = 0; i < axiomMask.size(); ++i)
    if (axiomMask[i] != 0 &&
        tbox_.toldAxioms()[i].kind != AxiomKind::kAnnotation)
      ++routedAxioms;
  // The concepts whose columns this routing decides, and the saturation
  // verdict "satisfiable" for any concept (see above for the others).
  std::vector<ConceptId> scope;
  DynamicBitset inScope(n);
  if (local) {
    scope = cone->cone;
    for (const ConceptId c : scope) inScope.set(c);
  } else {
    scope.resize(n);
    for (ConceptId c = 0; c < n; ++c) scope[c] = c;
    inScope.setAll();
  }

  // Saturate once, on this thread. Its time is the kRouting cycle entry
  // below.
  ElReasoner el(tbox_, std::move(axiomMask));
  el.classify();
  const auto elSat = [this, &el, &inScope](ConceptId c) {
    return inScope.test(c) ? el.isSatisfiable(c)
                           : store_.satStatus(c) == SatStatus::kSat;
  };

  std::uint64_t avoided = 0;

  // Unsatisfiable concepts — sound for any concept, pure or tainted.
  // Mirrors ensureSat's unsat path (status, erase, journal) so the
  // taxonomy assigns them to ⊥ exactly as a tableau-only run would.
  for (const ConceptId c : scope) {
    if (el.isSatisfiable(c)) continue;
    if (store_.satStatus(c) != SatStatus::kUnknown) continue;
    store_.setSatStatus(c, false);
    store_.eraseUnsatConcept(c);
    settle(SettledKind::kSatFalse, c, c);
    ++avoided;
  }

  // Negative-verdict gate. The theory above says pure negatives are sound
  // even with a non-EL residual; one cheap tableau sat test on a pure
  // concept cross-checks it (belt and braces against detector bugs): if
  // the tableau disagrees with saturation-satisfiable, fall back to
  // positive-only seeding. The call goes through ensureSat, so it is a
  // test the tableau-only run would have performed anyway.
  bool allowNegative = part.pureCount > 0;
  if (allowNegative && part.nonElAxioms > 0) {
    ConceptId guard = kInvalidConcept;
    for (ConceptId c = 0; c < n && guard == kInvalidConcept; ++c)
      if (part.pureConcepts.test(c) && elSat(c)) guard = c;
    if (guard != kInvalidConcept) {
      std::uint64_t cost = 0;
      allowNegative = ensureSat(guard, cost) == SatResult::kSat;
    }
  }

  // Masks `row` down to the pairs still open in P_x (P never holds the
  // diagonal), then settles them with the bulk kernel of `kind` and
  // journals them as one row. Returns the claims won.
  std::vector<std::uint64_t> open;
  const auto settleOpen = [this, &open](SettledKind kind, ConceptId x,
                                        DynamicBitset& row) -> std::uint64_t {
    store_.possibleRowWordsInto(x, open);
    std::uint64_t* words = row.mutableWords();
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < row.wordCountUsed(); ++i)
      any |= (words[i] &= open[i]);
    if (any == 0) return 0;
    const std::size_t won =
        kind == SettledKind::kSubsumption
            ? store_.seedKnownRow(x, words, row.wordCountUsed())
            : store_.seedNonSubRow(x, words, row.wordCountUsed());
    settleRow(kind, x, row);
    return won;
  };

  // Positive closure of the scope columns → per-sup K row masks (lazily
  // allocated), applied with the told-seeding bulk kernel. Unsat subs are
  // handled above; forEachSubsumer excludes the diagonal.
  std::vector<DynamicBitset> krow(n);
  for (const ConceptId sub : scope) {
    if (!el.isSatisfiable(sub)) continue;
    el.forEachSubsumer(sub, [&krow, n, sub](ConceptId sup) {
      if (krow[sup].empty()) krow[sup] = DynamicBitset(n);
      krow[sup].set(sub);
    });
  }
  std::uint64_t seededK = 0;
  for (ConceptId x = 0; x < n; ++x)
    if (!krow[x].empty())
      seededK += settleOpen(SettledKind::kSubsumption, x, krow[x]);
  avoided += seededK;

  if (allowNegative) {
    // Satisfiability of pure concepts comes straight from the fixpoint;
    // ensureSat short-circuits on the published status, so these concepts
    // never reach the tableau.
    DynamicBitset pureSat(n), pureSatCols(n);
    for (ConceptId c = 0; c < n; ++c) {
      if (!part.pureConcepts.test(c) || !elSat(c)) continue;
      pureSat.set(c);
      if (!inScope.test(c)) continue;
      pureSatCols.set(c);
      if (store_.satStatus(c) != SatStatus::kUnknown) continue;
      store_.setSatStatus(c, true);
      settle(SettledKind::kSatTrue, c, c);
      ++avoided;
    }
    // Definite non-subsumptions: pure × pure, both satisfiable, not in
    // the derived closure — mask built with the backend's andNot kernel,
    // settled with the bulk negative kernel so the division phases only
    // ever see pairs with a non-EL side. krow[x] was masked with P above,
    // but the pairs it lost are closed in P too, so masking this row with
    // P again drops every subsumption.
    const BitKernels& bk = store_.bitKernels();
    DynamicBitset mask(n);
    for (ConceptId x = 0; x < n; ++x) {
      if (!pureSat.test(x)) continue;
      if (!krow[x].empty())
        bk.andNotInto(mask.mutableWords(), pureSatCols.words(),
                      krow[x].words(), mask.wordCountUsed());
      else
        mask.assignWords(pureSatCols.words(), pureSatCols.wordCountUsed());
      avoided += settleOpen(SettledKind::kNonSubsumption, x, mask);
    }
  }

  routedConcepts_ = allowNegative ? part.pureCount : 0;
  routeSeeded_ = seededK;
  routeAvoided_ = avoided;
  routedAxioms_ = routedAxioms;

  result.cycles.push_back(
      {CycleStats::Phase::kRouting, 0, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

void ParallelClassifier::settleOutsideModule(Executor& exec,
                                             const ConeResult& cone) {
  // Module-signature rule (DESIGN.md §14). Every axiom outside mod_⊥(cone)
  // is ⊥-local w.r.t. its signature, so any model of the ontology,
  // restricted to that signature with every other symbol made empty, is
  // still a model. For a satisfiable cone concept y and x outside the
  // signature that model keeps y non-empty and makes x empty: y ⋢ x.
  // The cone's undecided sat tests run first, in parallel — the tests a
  // group round would run anyway; a failed one leaves its column open.
  bool anyPending = false;
  for (const ConceptId y : cone.cone) {
    if (store_.satStatus(y) != SatStatus::kUnknown) continue;
    anyPending = true;
    exec.dispatch(exec.pickWorker(config_.scheduling),
                  [this, y]() -> std::uint64_t {
                    std::uint64_t cost = 0;
                    ensureSat(y, cost);
                    return cost;
                  });
  }
  if (anyPending) exec.barrier();

  for (const ConceptId y : cone.cone) {
    if (store_.satStatus(y) != SatStatus::kSat) continue;
    store_.forEachPossibleInColumn(y, [this, &cone, y](ConceptId x) {
      if (cone.moduleConcepts.test(x) || !store_.claimTest(x, y)) return;
      store_.recordNonSubsumption(x, y);
      settle(SettledKind::kNonSubsumption, x, y);
    });
  }
}

void ParallelClassifier::runRandomCycle(Executor& exec, std::size_t cycleIndex,
                                        std::vector<ConceptId>& order,
                                        ClassificationResult& result) {
  const std::size_t n = order.size();
  const std::size_t w = exec.workers();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();
  const std::uint64_t t0 = exec.elapsedNs();

  // randomDivision: w contiguous slices of the shuffled order, one per
  // worker (group count == worker count, Section III-A1).
  const CancellationToken& cancel = exec.cancellation();
  const bool steal = config_.scheduling == SchedulingPolicy::kSteal;
  const std::size_t chunkPairs = std::max<std::size_t>(config_.stealChunkPairs, 1);
  const std::size_t base = n / w;
  const std::size_t extra = n % w;
  std::size_t begin = 0;
  for (std::size_t g = 0; g < w && begin < n; ++g) {
    const std::size_t size = base + (g < extra ? 1 : 0);
    if (size < 2) {
      begin += size;
      continue;  // a group needs at least one pair
    }
    auto slice = std::make_shared<const std::vector<ConceptId>>(
        order.begin() + static_cast<std::ptrdiff_t>(begin),
        order.begin() + static_cast<std::ptrdiff_t>(begin + size));
    begin += size;

    // One chunk covers the pairs whose *leading* index falls in
    // [iBegin, iEnd) — i.e. pairs (i, j) with iBegin ≤ i < iEnd < j ≤ size.
    auto runChunk = [this, slice, &cancel](std::size_t iBegin,
                                           std::size_t iEnd) -> std::uint64_t {
      std::uint64_t cost = 0;
      const std::vector<ConceptId>& s = *slice;
      for (std::size_t i = iBegin; i < iEnd; ++i) {
        if (cancel.cancelled()) break;  // cooperative: stop picking pairs
        for (std::size_t j = i + 1; j < s.size(); ++j) {
          if (config_.symmetricTests)
            testPairSymmetric(s[i], s[j], cost);
          else
            testOrdered(s[i], s[j], cost);
        }
      }
      return cost;
    };

    if (!steal) {
      // Verbatim Section III-A1: the whole group goes to worker g.
      exec.dispatch(g % w, [runChunk, size] { return runChunk(0, size); });
      continue;
    }
    // Work-stealing: split the group's triangular pair set into chunks of
    // ~stealChunkPairs tests by leading-index range, all unpinned, so an
    // idle worker can steal part of a heavy group instead of waiting at
    // the barrier.
    std::size_t iBegin = 0;
    while (iBegin + 1 < size) {
      std::size_t pairs = 0;
      std::size_t iEnd = iBegin;
      while (iEnd + 1 < size && pairs < chunkPairs) {
        pairs += size - 1 - iEnd;  // pairs led by index iEnd
        ++iEnd;
      }
      exec.dispatch(Executor::kAnyWorker,
                    [runChunk, iBegin, iEnd] { return runChunk(iBegin, iEnd); });
      iBegin = iEnd;
    }
  }
  exec.barrier();

  result.cycles.push_back(
      {CycleStats::Phase::kRandomDivision, cycleIndex, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

void ParallelClassifier::runGroupRound(Executor& exec, std::size_t roundIndex,
                                       ClassificationResult& result) {
  const std::size_t n = store_.conceptCount();
  const std::size_t possibleBefore = store_.remainingPossible();
  const std::uint64_t testsBefore = satTests_.value() + subsTests_.value();
  const std::uint64_t t0 = exec.elapsedNs();

  // groupDivision: one group G_X per concept with P_X ≠ ∅, dispatched with
  // the configured discipline. The group content (P_X) is snapshotted when
  // the task starts, so pruning performed by earlier groups already
  // shrinks later ones — the paper's "changes performed to P and K before
  // new divisions are created for an idle thread".
  //
  // Under kSteal a large G_X is additionally split into *column-range*
  // chunks (each task snapshots P_X ∩ [yBegin, yEnd) when it runs): a
  // fixed partition of the candidate space, so every possible pair is
  // still attempted exactly once per round regardless of how chunks
  // interleave, while idle workers steal slices of heavy groups. The
  // chunk count comes from the O(1) per-row counter — no scan.
  const CancellationToken& cancel = exec.cancellation();
  const bool steal = config_.scheduling == SchedulingPolicy::kSteal;
  const std::size_t chunkPairs = std::max<std::size_t>(config_.stealChunkPairs, 1);
  for (ConceptId x = 0; x < n; ++x) {
    const std::size_t cnt = store_.possibleCount(x);
    if (cnt == 0) continue;

    auto runChunk = [this, x, &cancel](std::size_t yBegin,
                                       std::size_t yEnd) -> std::uint64_t {
      std::uint64_t cost = 0;
      if (cancel.cancelled()) return cost;
      if (ensureSat(x, cost) != SatResult::kSat) return cost;
      // Snapshot P_X ∩ [yBegin, yEnd) into a per-worker scratch buffer —
      // the old vector-returning possibleRowRange() allocated on every
      // chunk dispatch, which dominated small-group rounds.
      thread_local std::vector<ConceptId> ybuf;
      store_.possibleRowRangeInto(x, yBegin, yEnd, ybuf);
      for (ConceptId y : ybuf) {
        if (cancel.cancelled()) break;  // cooperative: stop picking pairs
        if (config_.symmetricTests)
          testPairSymmetric(x, y, cost);
        else
          testOrdered(x, y, cost);
      }
      return cost;
    };

    const std::size_t chunks =
        steal ? std::min((cnt + chunkPairs - 1) / chunkPairs, n) : 1;
    if (chunks <= 1) {
      const std::size_t worker = exec.pickWorker(config_.scheduling);
      exec.dispatch(worker, [runChunk, n] { return runChunk(0, n); });
      continue;
    }
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t yBegin = n * c / chunks;
      const std::size_t yEnd = n * (c + 1) / chunks;
      exec.dispatch(Executor::kAnyWorker, [runChunk, yBegin, yEnd] {
        return runChunk(yBegin, yEnd);
      });
    }
  }
  exec.barrier();

  result.cycles.push_back(
      {CycleStats::Phase::kGroupDivision, roundIndex, possibleBefore,
       store_.remainingPossible(), exec.elapsedNs() - t0,
       satTests_.value() + subsTests_.value() - testsBefore});
}

void ParallelClassifier::buildHierarchy(Executor& exec,
                                        ClassificationResult& result) {
  const std::size_t n = store_.conceptCount();
  const std::uint64_t t0 = exec.elapsedNs();

  // Each divide pass runs as at most one contiguous concept-range task per
  // worker, then a barrier (DESIGN.md §8): a row takes microseconds, less
  // than the dispatch and wake-up of a task. rows(lo, hi) handles the rows
  // of [lo, hi) and returns how many it handled; the task charges a
  // 1000 ns bookkeeping tick per row.
  const std::size_t ranges = std::min(exec.workers(), n);
  auto runPass = [&](auto rows) {
    for (std::size_t t = 0; t < ranges; ++t) {
      const std::size_t lo = n * t / ranges, hi = n * (t + 1) / ranges;
      exec.dispatch(exec.pickWorker(config_.scheduling),
                    [rows, lo, hi]() -> std::uint64_t {
                      return 1000 * rows(lo, hi);
                    });
    }
    exec.barrier();
  };

  // Divide (Algorithm 4, parallel): snapshot the K rows.
  std::vector<DynamicBitset> kbits(n);
  runPass([this, &kbits](std::size_t lo, std::size_t hi) {
    for (std::size_t x = lo; x < hi; ++x)
      kbits[x] = store_.knownRowBits(static_cast<ConceptId>(x));
    return hi - lo;
  });

  // Equivalence classes over mutual known-subsumption, one node each.
  std::vector<bool> sat(n);
  for (ConceptId x = 0; x < n; ++x)
    sat[x] = store_.satStatus(x) != SatStatus::kUnsat;
  EquivalenceClasses eq = equivalenceClasses(kbits, sat);

  // Class-level K adjacency: adj[r] = representatives of classes with at
  // least one member in some member-row of class r. Algorithm 5 pruning
  // may have dropped *single-step* K entries whose indirectness is only
  // witnessed through an intermediate class, so direct children must be
  // computed by *reachability* over this adjacency, not by one-step row
  // subtraction (the pruning invariant guarantees every true subsumee
  // stays reachable through a chain of witnesses).
  std::vector<std::vector<ConceptId>> adj(n);
  runPass([&eq, &kbits, &adj, n](std::size_t lo, std::size_t hi) {
    DynamicBitset k(n), seen(n);
    std::size_t handled = 0;
    for (std::size_t r = lo; r < hi; ++r) {
      if (eq.nodeOfRep[r] == Taxonomy::kNoNode) continue;
      ++handled;
      k.resetAll();
      seen.resetAll();
      for (ConceptId m : eq.members[r]) k |= kbits[m];
      for (ConceptId m : eq.members[r]) k.reset(m);
      k.forEachSetBit([&](std::size_t y) {
        const ConceptId ry = eq.rep[y];
        if (ry == r || seen.test(ry)) return;
        seen.set(ry);
        adj[r].push_back(ry);
      });
    }
    return handled;
  });

  // buildPartialHierarchy (divide): H_r = candidate child classes minus
  // those reachable from another candidate (transitive reduction by DFS).
  std::vector<std::vector<ConceptId>> direct(n);
  runPass([&eq, &adj, &direct, n](std::size_t lo, std::size_t hi) {
    DynamicBitset reachable(n);
    std::vector<ConceptId> stack;
    std::size_t handled = 0;
    for (std::size_t r = lo; r < hi; ++r) {
      if (eq.nodeOfRep[r] == Taxonomy::kNoNode) continue;
      ++handled;
      const std::vector<ConceptId>& cand = adj[r];
      reachable.resetAll();
      if (cand.size() > 1) {
        // DFS from every candidate's children; anything reached is an
        // indirect subsumee of r.
        for (ConceptId c : cand)
          for (ConceptId cc : adj[c])
            if (!reachable.test(cc)) {
              reachable.set(cc);
              stack.push_back(cc);
            }
        while (!stack.empty()) {
          const ConceptId cur = stack.back();
          stack.pop_back();
          for (ConceptId cc : adj[cur]) {
            if (!reachable.test(cc)) {
              reachable.set(cc);
              stack.push_back(cc);
            }
          }
        }
      }
      for (ConceptId c : cand)
        if (!reachable.test(c)) direct[r].push_back(c);
    }
    return handled;
  });

  // Conquer (sequential): merge the partial hierarchies into the taxonomy.
  Taxonomy& tax = eq.taxonomy;
  for (ConceptId r = 0; r < n; ++r)
    for (ConceptId childRep : direct[r]) {
      const Taxonomy::NodeId child = eq.nodeOfRep[childRep];
      if (child != Taxonomy::kNoNode) tax.addEdge(eq.nodeOfRep[r], child);
    }
  tax.finalize();
  result.taxonomy = std::move(tax);

  result.cycles.push_back({CycleStats::Phase::kHierarchy, 0, 0, 0,
                           exec.elapsedNs() - t0, 0});
}

ClassificationResult ParallelClassifier::classify(Executor& exec) {
  return run(exec, nullptr);
}

ClassificationResult ParallelClassifier::resumeClassify(
    Executor& exec, const ClassifierCheckpoint& from) {
  return run(exec, &from);
}

ClassificationResult ParallelClassifier::run(Executor& exec,
                                             const ClassifierCheckpoint* from) {
  ClassificationResult result;
  const std::size_t n = store_.conceptCount();
  result.initialPossible = n * (n - 1);

  std::size_t startCycle = 0;
  std::size_t round = 0;
  if (from == nullptr) {
    store_.initPossibleAll();
    // Genesis barrier *before* seeding: with checkpointing enabled the
    // initialized state is snapshotted before any journal record exists,
    // so recovery always has a snapshot to anchor on — a crash mid-seeding
    // replays the seed records on top of this epoch-0 image (and the
    // resume path below never re-seeds; unseeded pairs are simply tested,
    // yielding the identical taxonomy).
    notifyBarrier(0, 0);
    started_.store(true, std::memory_order_release);
    if (config_.toldSeeding) seedTold();
    if (config_.routeEl != ElRouting::kOff)
      routeElFragment(exec, result, nullptr);
  } else {
    store_.restoreImage(from->store);
    epoch_.store(from->progress.epoch, std::memory_order_relaxed);
    startCycle = std::min<std::size_t>(from->progress.completedCycles,
                                       config_.randomCycles);
    round = from->progress.completedRounds;
    // Re-anchor: the recovered state (snapshot + replayed journal tail)
    // becomes the newest snapshot, and the journal is already truncated to
    // its last valid record — post-resume appends extend a clean prefix.
    notifyBarrier(startCycle, round);
    started_.store(true, std::memory_order_release);
    // Delta reruns (DESIGN.md §14) resume from a synthetic checkpoint whose
    // reopened cone columns never saw a routing phase; route them now so
    // the EL part settles at saturation speed, then settle what the cone's
    // module signature rules out. Crash-recovery resumes pass no cone —
    // their routed verdicts are already in the replayed journal.
    if (const ConeResult* cone = config_.rerunCone; cone != nullptr) {
      if (config_.routeEl != ElRouting::kOff)
        routeElFragment(exec, result, cone);
      if (!cone->fullCone && !stopRequested_.load(std::memory_order_relaxed))
        settleOutsideModule(exec, *cone);
    }
  }
  if (config_.watchdogBudgetNs != 0) exec.armWatchdog(config_.watchdogBudgetNs);
  const CancellationToken& cancel = exec.cancellation();

  // Convergence slack for fault tolerance: a test key may fail up to
  // maxRetries+1 times, each followed by at most backoffCapRounds idle
  // rounds, and a pair can serialise up to four such keys (two sat tests,
  // two subsumption directions) before it is resolved or withdrawn.
  const std::size_t faultSlack =
      4 * (config_.maxRetries + 1) * (config_.backoffCapRounds + 1) + 4;

  // Phase 1: random division cycles. On resume the completed cycles are
  // skipped but their shuffles are replayed, so the RNG cursor — and with
  // it every later shuffle — matches the uninterrupted run exactly.
  std::vector<ConceptId> order(n);
  for (ConceptId c = 0; c < n; ++c) order[c] = c;
  Xoshiro256 rng(config_.seed);
  for (std::size_t cycle = 0; cycle < config_.randomCycles; ++cycle) {
    shuffle(order, rng);
    if (cycle < startCycle) continue;  // already covered by the checkpoint
    if (stopRequested_.load(std::memory_order_relaxed)) break;
    runRandomCycle(exec, cycle, order, result);
    advanceEpoch();  // backoff round clock; wakes epoch waiters
    notifyBarrier(cycle + 1, round);
  }

  // Phase 2: group division until R_O = ∅. One round resolves every
  // remaining bit (each P_X is exhaustively attempted); the loop guards
  // against claim races leaving stragglers, and keeps spinning while
  // failed tests back off — every key either eventually succeeds or
  // exhausts its retries and is withdrawn, so the loop terminates.
  while (store_.remainingPossible() > 0 && !cancel.cancelled() &&
         !stopRequested_.load(std::memory_order_relaxed)) {
    runGroupRound(exec, round, result);
    advanceEpoch();
    OWLCL_ASSERT_MSG(++round <= n + 1 + faultSlack,
                     "group division failed to converge");
    notifyBarrier(config_.randomCycles, round);
  }

  // Satisfiability completion: unsat-erasure and Algorithm 5 pruning can
  // resolve every pair involving a concept without ever running sat?() on
  // it (e.g. a two-concept ontology where the partner is found
  // unsatisfiable first). The taxonomy needs a definite status for every
  // concept, so test the stragglers in parallel — repeating rounds while
  // failed sat tests back off, skipping concepts already given up on.
  std::size_t satPass = 0;
  while (!cancel.cancelled() && !stopRequested_.load(std::memory_order_relaxed)) {
    bool anyPending = false;
    for (ConceptId x = 0; x < n; ++x) {
      if (store_.satStatus(x) != SatStatus::kUnknown) continue;
      if (store_.conceptUnresolved(x)) continue;  // degraded: given up
      anyPending = true;
      exec.dispatch(exec.pickWorker(config_.scheduling),
                    [this, x]() -> std::uint64_t {
                      std::uint64_t cost = 0;
                      ensureSat(x, cost);
                      return cost;
                    });
    }
    if (!anyPending) break;
    exec.barrier();
    advanceEpoch();
    OWLCL_ASSERT_MSG(++satPass <= faultSlack,
                     "sat completion failed to converge");
    notifyBarrier(config_.randomCycles, ++round);
  }

  // Graceful degradation: a fired watchdog (or external cancel) leaves
  // pairs possible and sat statuses unknown; withdraw them into the
  // unresolved report so the partial taxonomy below is still sound.
  result.cancelled = cancel.cancelled();
  if (result.cancelled) drainPossibleToUnresolved();

  // Quiescent pause (requestStop): if the stop cut the run short, leave
  // everything in place — no draining, no taxonomy — so captureCheckpoint()
  // flushes a state a resumed run continues from exactly. A stop that
  // landed after the last pair resolved is a normal completion.
  if (!result.cancelled && stopRequested_.load(std::memory_order_relaxed)) {
    bool openWork = store_.remainingPossible() > 0;
    for (ConceptId c = 0; !openWork && c < n; ++c)
      openWork = store_.satStatus(c) == SatStatus::kUnknown &&
                 !store_.conceptUnresolved(c);
    result.paused = openWork;
  }

  // Phase 3: taxonomy construction.
  if (!result.paused) buildHierarchy(exec, result);

  result.elapsedNs = exec.elapsedNs();
  result.busyNs = exec.busyNs();
  result.satTests = satTests_.value();
  result.subsumptionTests = subsTests_.value();
  result.prunedWithoutTest = pruned_.value();
  result.seededWithoutTest = seeded_;
  result.routedConcepts = routedConcepts_;
  result.saturationSeeded = routeSeeded_;
  result.testsAvoidedByRouting = routeAvoided_;
  result.routedAxioms = routedAxioms_;
  result.failedTests = failedTests_.value();
  result.retriedTests = retriedTests_.value();
  // Engine-level numbers (zero for plug-ins without engine internals).
  // Workers are joined by the phase barriers above, so the read is exact.
  const ReasonerStats rs = plugin_.reasonerStats();
  result.reasonerSatCalls = rs.satCalls;
  result.reasonerCacheHits = rs.cacheHits;
  result.reasonerClashes = rs.clashes;
  result.crossCacheHits = rs.crossCacheHits;
  result.mergeRefuted = rs.mergeRefuted;
  result.cacheInserts = rs.cacheInserts;
  result.cacheRejectedFull = rs.cacheRejectedFull;
  result.cacheRejectedLong = rs.cacheRejectedLong;
  result.unresolvedPairs = store_.unresolvedPairs();
  std::sort(result.unresolvedPairs.begin(), result.unresolvedPairs.end());
  result.unresolvedConcepts = store_.unresolvedConcepts();
  std::sort(result.unresolvedConcepts.begin(), result.unresolvedConcepts.end());
  finished_.store(true, std::memory_order_release);
  signalProgress();
  return result;
}

ClassifierCheckpoint ParallelClassifier::captureCheckpoint() const {
  ClassifierCheckpoint c;
  c.progress =
      ClassifierProgress{progressCycles_.load(std::memory_order_relaxed),
                         progressRounds_.load(std::memory_order_relaxed),
                         epoch_.load(std::memory_order_relaxed)};
  c.store = store_.captureImage();
  return c;
}

SatVerdict ParallelClassifier::querySat(ConceptId c) const {
  if (!started_.load(std::memory_order_acquire) || c >= store_.conceptCount())
    return SatVerdict::kUnknown;
  switch (store_.satStatus(c)) {
    case SatStatus::kSat:
      return SatVerdict::kSatisfiable;
    case SatStatus::kUnsat:
      return SatVerdict::kUnsatisfiable;
    case SatStatus::kUnknown:
      break;
  }
  return store_.conceptUnresolved(c) ? SatVerdict::kUnresolved
                                     : SatVerdict::kUnknown;
}

PairVerdict ParallelClassifier::queryPair(ConceptId sup, ConceptId sub) const {
  if (!started_.load(std::memory_order_acquire)) return PairVerdict::kUnknown;
  const std::size_t n = store_.conceptCount();
  if (sup >= n || sub >= n) return PairVerdict::kUnknown;
  if (sup == sub) return PairVerdict::kSubsumed;
  // An unsatisfiable sub is subsumed by everything (it sits at ⊥).
  if (store_.satStatus(sub) == SatStatus::kUnsat) return PairVerdict::kSubsumed;

  // Read order matters: P before K. Every writer publishes the K edge (or
  // its witnesses) before clearing the P bit, so a query that still sees
  // the pair possible answers kUnknown, and one that sees it settled is
  // guaranteed to observe the verdict.
  if (store_.possible(sup, sub)) return PairVerdict::kUnknown;
  if (store_.known(sup, sub)) return PairVerdict::kSubsumed;
  if (store_.pairUnresolved(sup, sub)) return PairVerdict::kUnresolved;
  if (store_.satStatus(sup) == SatStatus::kUnsat)
    // Unsat-erasure is what cleared this P bit: sub ⊑ sup would require sub
    // unsatisfiable too (handled above); an undecided sub stays open.
    return store_.satStatus(sub) == SatStatus::kSat ? PairVerdict::kNotSubsumed
                                                    : PairVerdict::kUnknown;

  // Settled with no direct K edge: either a tested non-subsumption or an
  // Algorithm 5 indirect prune. Pruning removed K(sup, sub) but — by the
  // 2.3.1 invariant — sub stays reachable from sup through witness chains
  // (y ⊑ mid ⊑ sup with both K edges live or themselves witnessed), so an
  // upward walk over sub's known subsumers recovers the verdict.
  thread_local std::vector<char> visited;
  thread_local std::vector<ConceptId> touched;
  thread_local std::vector<ConceptId> stack;
  if (visited.size() < n) visited.resize(n, 0);
  touched.clear();
  stack.clear();
  visited[sub] = 1;
  touched.push_back(sub);
  stack.push_back(sub);
  bool hit = false;
  while (!stack.empty() && !hit) {
    const ConceptId cur = stack.back();
    stack.pop_back();
    store_.forEachKnownInColumn(cur, [&](ConceptId up) {
      if (hit || up >= n) return;
      if (up == sup) {
        hit = true;
        return;
      }
      if (!visited[up]) {
        visited[up] = 1;
        touched.push_back(up);
        stack.push_back(up);
      }
    });
  }
  for (ConceptId t : touched) visited[t] = 0;
  return hit ? PairVerdict::kSubsumed : PairVerdict::kNotSubsumed;
}

PairVerdict ParallelClassifier::waitForPair(
    ConceptId sup, ConceptId sub,
    std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    const PairVerdict v = queryPair(sup, sub);
    if (v != PairVerdict::kUnknown || finished()) return v;
    std::unique_lock<std::mutex> lock(epochMu_);
    const std::size_t seen = epoch_.load(std::memory_order_relaxed);
    const bool progressed = epochCv_.wait_until(lock, deadline, [this, seen] {
      return epoch_.load(std::memory_order_relaxed) != seen ||
             finished_.load(std::memory_order_acquire);
    });
    if (!progressed) {
      lock.unlock();
      return queryPair(sup, sub);  // deadline hit: report what we have
    }
  }
}

SatVerdict ParallelClassifier::waitForSat(
    ConceptId c, std::chrono::steady_clock::time_point deadline) const {
  for (;;) {
    const SatVerdict v = querySat(c);
    if (v != SatVerdict::kUnknown || finished()) return v;
    std::unique_lock<std::mutex> lock(epochMu_);
    const std::size_t seen = epoch_.load(std::memory_order_relaxed);
    const bool progressed = epochCv_.wait_until(lock, deadline, [this, seen] {
      return epoch_.load(std::memory_order_relaxed) != seen ||
             finished_.load(std::memory_order_acquire);
    });
    if (!progressed) {
      lock.unlock();
      return querySat(c);
    }
  }
}

bool ParallelClassifier::waitForCompletion(
    std::chrono::steady_clock::time_point deadline) const {
  std::unique_lock<std::mutex> lock(epochMu_);
  return epochCv_.wait_until(lock, deadline, [this] {
    return finished_.load(std::memory_order_acquire);
  });
}

}  // namespace owlcl
