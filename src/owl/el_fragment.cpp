#include "owl/el_fragment.hpp"

#include "owl/bot_module.hpp"
#include "util/assert.hpp"

namespace owlcl {

bool isElSafeExpr(const ExprFactory& f, ExprId e) {
  switch (f.kind(e)) {
    case ExprKind::kTop:
    case ExprKind::kBottom:
    case ExprKind::kAtom:
      return true;
    case ExprKind::kAnd:
    case ExprKind::kExists:
      for (ExprId c : f.children(e))
        if (!isElSafeExpr(f, c)) return false;
      return true;
    case ExprKind::kNot:      // negation
    case ExprKind::kOr:       // disjunction
    case ExprKind::kForall:   // universal restriction
    case ExprKind::kAtLeast:  // qualified min-cardinality
    case ExprKind::kAtMost:   // qualified max-cardinality
      return false;
  }
  // Fail closed: a node kind this switch does not know (added after this
  // detector was written) is NOT EL. The table-driven test over every
  // ExprKind pins this.
  return false;
}

bool isElSafeAxiom(const TBox& tbox, const ToldAxiom& ax) {
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses:
      for (ExprId c : ax.classArgs)
        if (!isElSafeExpr(tbox.exprs(), c)) return false;
      return true;
    case AxiomKind::kSubObjectPropertyOf:
    case AxiomKind::kTransitiveObjectProperty:
      return true;  // EL+ has role hierarchies and transitivity
    case AxiomKind::kAnnotation:
      return true;  // logically inert
  }
  return false;  // fail closed, as above
}

ElPartition partitionElFragment(const TBox& tbox) {
  OWLCL_ASSERT_MSG(tbox.frozen(), "partitionElFragment needs a frozen TBox");
  const std::vector<ToldAxiom>& told = tbox.toldAxioms();

  ElPartition part;
  part.axiomEl.assign(told.size(), 0);
  BotModuleReach reach(tbox.conceptCount(), tbox.roles().size());
  for (std::size_t i = 0; i < told.size(); ++i) {
    const bool el = isElSafeAxiom(tbox, told[i]);
    part.axiomEl[i] = el ? 1 : 0;
    if (told[i].kind != AxiomKind::kAnnotation)
      ++(el ? part.elAxioms : part.nonElAxioms);
    reach.addAxiom(tbox, told[i], /*seed=*/!el);
  }

  // A symbol is pure iff its ⊥-module reaches no non-EL axiom — and,
  // because reach is additive, so is the module of any pure *pair*.
  // `always` reaching ⟺ the always-module (axioms present in every
  // ⊥-module) reaches a non-EL axiom: nothing is pure. This also covers
  // global inconsistency hiding in the residual — a ⊤ ⊑ ⊥ entailment
  // needs axioms of the Σ=∅ module, and if those were all EL the
  // saturation itself derives every concept unsatisfiable.
  const DynamicBitset dangerous = reach.reachingSymbols();
  part.globallyTainted = dangerous.test(reach.always());
  part.pureConcepts = DynamicBitset(tbox.conceptCount());
  if (!part.globallyTainted) {
    for (std::size_t c = 0; c < tbox.conceptCount(); ++c) {
      if (!dangerous.test(c)) {
        part.pureConcepts.set(c);
        ++part.pureCount;
      }
    }
  }
  return part;
}

}  // namespace owlcl
