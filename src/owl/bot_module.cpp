#include "owl/bot_module.hpp"

#include <algorithm>

namespace owlcl {

namespace {

/// The symbol space of BotModuleReach, as the trigger walkers need it.
struct SymbolSpace {
  std::size_t concepts;
  std::uint32_t always;  // == concepts + roles
  std::uint32_t roleSym(RoleId r) const {
    return static_cast<std::uint32_t>(concepts + r);
  }
};

/// Appends the *trigger set* of expression e: under any signature Σ
/// disjoint from it, e ⊥-evaluates to ⊥ — so an axiom whose left-hand
/// side trigger misses Σ is ⊥-local (a tautology after ⊥-substitution)
/// and lies outside mod_⊥(Σ). The sets are deliberately small sound
/// over-approximations; see the ⊓ case.
void trigExpr(const ExprFactory& f, const SymbolSpace& sp, ExprId e,
              std::vector<std::uint32_t>& out) {
  switch (f.kind(e)) {
    case ExprKind::kTop:
      out.push_back(sp.always);  // ⊤ never vanishes
      return;
    case ExprKind::kBottom:
      return;  // ⊥ vanishes under every Σ: empty trigger
    case ExprKind::kAtom:
      out.push_back(f.node(e).atom);
      return;
    case ExprKind::kAnd: {
      // The conjunction vanishes as soon as ANY conjunct vanishes, so any
      // single conjunct's trigger is sound for the whole ⊓. Pick the
      // cheapest: a vanishing conjunct (∅), else one without `always`.
      std::vector<std::uint32_t> best, cur;
      bool haveBest = false;
      auto hasAlways = [&sp](const std::vector<std::uint32_t>& v) {
        return std::find(v.begin(), v.end(), sp.always) != v.end();
      };
      for (ExprId c : f.children(e)) {
        cur.clear();
        trigExpr(f, sp, c, cur);
        if (cur.empty()) return;  // some conjunct always vanishes
        if (!haveBest || (hasAlways(best) && !hasAlways(cur))) {
          best = cur;
          haveBest = true;
        }
      }
      out.insert(out.end(), best.begin(), best.end());
      return;
    }
    case ExprKind::kOr:
      // Vanishes only when EVERY disjunct vanishes: union of triggers.
      for (ExprId c : f.children(e)) trigExpr(f, sp, c, out);
      return;
    case ExprKind::kNot:
      // ¬C ⊥-evaluates to ¬⊥ = ⊤ (never ⊥) unless C is syntactically ⊤.
      if (f.kind(f.children(e)[0]) != ExprKind::kTop) out.push_back(sp.always);
      return;
    case ExprKind::kExists:
      // ∃r.C vanishes whenever r ∉ Σ (the empty role has no successors).
      out.push_back(sp.roleSym(f.node(e).role));
      return;
    case ExprKind::kAtLeast:
      if (f.node(e).number >= 1)
        out.push_back(sp.roleSym(f.node(e).role));  // like ∃: needs r ∈ Σ
      else
        out.push_back(sp.always);  // ≥0 r.C ≡ ⊤
      return;
    case ExprKind::kForall:
    case ExprKind::kAtMost:
      // ∀r.C / ≤n r.C ⊥-evaluate to ⊤ when r ∉ Σ: never guaranteed to
      // vanish.
      out.push_back(sp.always);
      return;
  }
  out.push_back(sp.always);  // fail closed: unknown kinds never vanish
}

/// Appends every concept and role symbol occurring in e.
void sigExpr(const ExprFactory& f, const SymbolSpace& sp, ExprId e,
             std::vector<std::uint32_t>& out) {
  const ExprNode& n = f.node(e);
  switch (n.kind) {
    case ExprKind::kAtom:
      out.push_back(n.atom);
      return;
    case ExprKind::kExists:
    case ExprKind::kForall:
    case ExprKind::kAtLeast:
    case ExprKind::kAtMost:
      out.push_back(sp.roleSym(n.role));
      break;
    default:
      break;
  }
  for (ExprId c : f.children(e)) sigExpr(f, sp, c, out);
}

/// Trigger and signature of one told axiom. An axiom fires into a module
/// when its trigger intersects the module signature; firing imports its
/// whole signature into the module signature.
void axiomSyms(const TBox& tbox, const SymbolSpace& sp, const ToldAxiom& ax,
               std::vector<std::uint32_t>& trig,
               std::vector<std::uint32_t>& sig) {
  const ExprFactory& f = tbox.exprs();
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
      // lhs ⊑ ⊤ is a tautology under every Σ → in no module.
      if (f.kind(ax.classArgs[1]) != ExprKind::kTop)
        trigExpr(f, sp, ax.classArgs[0], trig);
      for (ExprId c : ax.classArgs) sigExpr(f, sp, c, sig);
      return;
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses:
      // Pairwise inclusions / disjointness clauses: any operand staying
      // alive can make some clause non-local.
      for (ExprId c : ax.classArgs) {
        trigExpr(f, sp, c, trig);
        sigExpr(f, sp, c, sig);
      }
      return;
    case AxiomKind::kSubObjectPropertyOf:
      trig.push_back(sp.roleSym(ax.role1));  // ⊥ ⊑ s is a tautology
      sig.push_back(sp.roleSym(ax.role1));
      sig.push_back(sp.roleSym(ax.role2));
      return;
    case AxiomKind::kTransitiveObjectProperty:
      trig.push_back(sp.roleSym(ax.role1));  // ⊥∘⊥ ⊑ ⊥ is a tautology
      sig.push_back(sp.roleSym(ax.role1));
      return;
    case AxiomKind::kAnnotation:
      return;  // logically inert: empty trigger and signature
  }
}

}  // namespace

BotModuleReach::BotModuleReach(std::size_t concepts, std::size_t roles)
    : concepts_(concepts),
      always_(static_cast<std::uint32_t>(concepts + roles)) {}

void BotModuleReach::addAxiom(const TBox& tbox, const ToldAxiom& ax,
                              bool seed) {
  const SymbolSpace sp{concepts_, always_};
  std::vector<std::uint32_t>& trig = trig_.emplace_back();
  std::vector<std::uint32_t>& sig = sig_.emplace_back();
  axiomSyms(tbox, sp, ax, trig, sig);
  for (std::vector<std::uint32_t>* v : {&trig, &sig}) {
    std::sort(v->begin(), v->end());
    v->erase(std::unique(v->begin(), v->end()), v->end());
  }
  seed_.push_back(seed ? 1 : 0);
}

DynamicBitset BotModuleReach::reachingSymbols() const {
  const std::size_t nSyms = always_ + 1;
  std::vector<std::vector<std::uint32_t>> axiomsOfSym(nSyms);
  for (std::size_t i = 0; i < sig_.size(); ++i)
    for (std::uint32_t s : sig_[i])
      axiomsOfSym[s].push_back(static_cast<std::uint32_t>(i));

  // Init: a symbol that can fire a seed axiom into a module reaches it.
  // Propagate: an axiom whose signature holds a reaching symbol imports
  // that reach into every module it fires into, so its own trigger
  // reaches too. Firing is single-symbol, so s reaches iff mod_⊥({s})
  // may contain a seed axiom, and a set of symbols reaches iff one of
  // its members does.
  DynamicBitset reached(nSyms);
  std::vector<std::uint32_t> work;
  auto mark = [&reached, &work](std::uint32_t s) {
    if (!reached.test(s)) {
      reached.set(s);
      work.push_back(s);
    }
  };
  for (std::size_t i = 0; i < trig_.size(); ++i)
    if (seed_[i] != 0)
      for (std::uint32_t s : trig_[i]) mark(s);
  std::vector<std::uint8_t> fired(trig_.size(), 0);
  while (!work.empty()) {
    const std::uint32_t s = work.back();
    work.pop_back();
    for (std::uint32_t i : axiomsOfSym[s]) {
      if (fired[i] != 0) continue;  // trigger already fully marked
      fired[i] = 1;
      for (std::uint32_t t : trig_[i]) mark(t);
    }
  }
  return reached;
}

}  // namespace owlcl
