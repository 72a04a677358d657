// EL+ saturation-based classifier (Baader, Brandt & Lutz completion rules;
// the algorithm family ELK parallelises). Polynomial-time and complete for
// the EL+ fragment: ⊤, ⊥, named concepts, ⊓, ∃, DisjointClasses, role
// hierarchies and transitive roles.
//
// Roles in this codebase (DESIGN.md §2):
//  * router — the parallel classifier's routing phase (DESIGN.md §13)
//    saturates the maximal EL sub-ontology once, on the coordinating
//    thread, and seeds the P/K store from the fixpoint;
//  * cross-check oracle — integration tests compare the tableau reasoner
//    and the parallel classifier against this saturation on EL ontologies;
//  * ELK-style comparator for the related-work baseline bench.
//
// Usage: construct with a frozen TBox whose axioms are all in the EL
// fragment (isElTBox() tells you), call classify(), then query subsumes().
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "owl/tbox.hpp"
#include "util/assert.hpp"
#include "util/bitset.hpp"

namespace owlcl {

/// True iff every told axiom of `tbox` lies in the EL+ fragment
/// (no ⊔, ¬, ∀, ≥, ≤; DisjointClasses is allowed — it is encoded via ⊥).
/// Delegates to the owl-layer detector (owl/el_fragment.hpp).
bool isElTBox(const TBox& tbox);

class ElReasoner {
 public:
  /// `tbox` must outlive the reasoner, be frozen, and satisfy isElTBox().
  explicit ElReasoner(const TBox& tbox);

  /// As above, but saturates only the told axioms whose index is set in
  /// `axiomMask` (aligned with tbox.toldAxioms()). Every selected axiom
  /// must be EL-safe (isElSafeAxiom); unselected axioms may be anything —
  /// this is how the hybrid router feeds the maximal EL sub-ontology of a
  /// mixed ALCHQ TBox to saturation. The role box (hierarchy closure,
  /// transitivity) is always consumed whole; role axioms are EL-safe by
  /// construction.
  ElReasoner(const TBox& tbox, std::vector<std::uint8_t> axiomMask);

  /// Runs saturation to a fixpoint. Idempotent.
  void classify();

  /// After classify(): does `sup` subsume `sub` (i.e. sub ⊑ sup)? O(1).
  bool subsumes(ConceptId sup, ConceptId sub) const;

  /// Is the named concept satisfiable (⊥ ∉ S(A))?
  bool isSatisfiable(ConceptId c) const;

  /// All named strict subsumers of `sub` (excluding ⊤ and sub itself).
  std::vector<ConceptId> subsumersOf(ConceptId sub) const;

  /// After classify(): invokes cb(sup) once for every named sup != sub
  /// with subsumes(sup, sub) — every concept when sub is unsatisfiable.
  /// The router reads every column it settles with this.
  template <typename Fn>
  void forEachSubsumer(ConceptId sub, Fn&& cb) const {
    OWLCL_ASSERT(classified_);
    const std::size_t n = tbox_.conceptCount();
    const DynamicBitset& s = subsumers_[namedAtom(sub)];
    if (s.test(kBotAtom)) {
      for (std::size_t sup = 0; sup < n; ++sup)
        if (sup != sub) cb(static_cast<ConceptId>(sup));
      return;
    }
    s.forEachSetBit([&cb, sub, n](std::size_t a) {
      if (a < 2 || a >= 2 + n) return;  // ⊤, ⊥ and normalisation atoms
      const ConceptId sup = static_cast<ConceptId>(a - 2);
      if (sup != sub) cb(sup);
    });
  }

  /// Number of completion-rule applications performed (for benches).
  std::size_t ruleApplications() const { return ruleApplications_; }

 private:
  // Internal atoms: 0 = ⊤, 1 = ⊥, 2..2+n-1 = named concepts, then fresh
  // atoms introduced by normalisation.
  using Atom = std::uint32_t;
  static constexpr Atom kTopAtom = 0;
  static constexpr Atom kBotAtom = 1;

  Atom namedAtom(ConceptId c) const { return static_cast<Atom>(2 + c); }

  struct Nf2 {
    Atom other;  // the second conjunct to look for in S(x)
    Atom rhs;
  };
  struct Nf3 {
    RoleId role;
    Atom filler;
  };
  struct Nf4 {
    RoleId role;
    Atom rhs;
  };

  struct SubEvent {
    Atom x, s;
  };
  struct LinkEvent {
    RoleId r;
    Atom x, y;
  };

  Atom freshAtom();
  Atom atomize(ExprId e);  // maps an EL expression to a defined atom

  void addNf1(Atom a, Atom b);
  void addNf2(Atom a1, Atom a2, Atom b);
  void addNf3(Atom a, RoleId r, Atom b);
  void addNf4(RoleId r, Atom a, Atom b);

  void normalise();
  void initSaturation();
  void saturate();
  void processSub(const SubEvent& ev);
  void processLink(const LinkEvent& ev);

  void addSubsumer(Atom x, Atom s);
  /// Adds (x,y) to R(r) *and all super-roles of r* (CR10 materialised).
  void addLinkWithSupers(RoleId r, Atom x, Atom y);
  void addLinkExact(RoleId r, Atom x, Atom y);

  const TBox& tbox_;
  /// Told-axiom filter for the masked constructor; empty = all axioms.
  std::vector<std::uint8_t> axiomMask_;
  bool classified_ = false;
  std::size_t atomCount_ = 0;
  std::size_t ruleApplications_ = 0;

  // Axiom indexes, keyed by atom.
  std::vector<std::vector<Atom>> nf1Of_;  // A  -> [B]        (A ⊑ B)
  std::vector<std::vector<Nf2>> nf2Of_;   // A1 -> [(A2, B)]  (both orders)
  std::vector<std::vector<Nf3>> nf3Of_;   // A  -> [(r, B)]   (A ⊑ ∃r.B)
  std::vector<std::vector<Nf4>> nf4Of_;   // A  -> [(r, B)]   (∃r.A ⊑ B)

  // Saturation state.
  std::vector<DynamicBitset> subsumers_;                  // S(x) over atoms
  std::vector<std::vector<std::vector<Atom>>> linkFwd_;   // [r][x] -> ys
  std::vector<std::vector<std::vector<Atom>>> linkBwd_;   // [r][y] -> xs
  std::vector<std::unordered_set<std::uint64_t>> linkHas_;  // [r] {x<<32|y}

  std::deque<SubEvent> subQueue_;
  std::deque<LinkEvent> linkQueue_;

  std::unordered_map<ExprId, Atom> exprAtom_;  // definition cache
};

}  // namespace owlcl
