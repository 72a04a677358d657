#include "gen/generator.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace owlcl {

namespace {

/// Parent pick with mild preferential attachment toward low indices
/// (OBO-style taxonomies are bushy near the root).
ConceptId pickParent(Xoshiro256& rng, std::size_t below, double bias) {
  OWLCL_ASSERT(below >= 1);
  if (below == 1) return 0;
  const double u = rng.uniform01();
  const double skew = 1.0 + bias * 3.0;
  const double frac = 1.0 - std::pow(u, skew) * 0.999;  // frac ∈ (0, 1]
  std::size_t idx = static_cast<std::size_t>(frac * static_cast<double>(below));
  if (idx >= below) idx = below - 1;
  return static_cast<ConceptId>(below - 1 - idx);  // high frac → low index
}

}  // namespace

GeneratedOntology generateOntology(const GenConfig& cfg) {
  OWLCL_ASSERT(cfg.concepts >= 2);
  Xoshiro256 rng(cfg.seed);

  GeneratedOntology out;
  out.name = cfg.name;
  out.tbox = std::make_unique<TBox>();
  TBox& t = *out.tbox;
  ExprFactory& f = t.exprs();
  GroundTruth& truth = out.truth;

  const std::size_t n = cfg.concepts;
  for (std::size_t i = 0; i < n; ++i)
    t.declareConcept(strprintf("%s_C%05zu", cfg.name.c_str(), i));

  // Role pools: first third for ∃ decorations, second for ∀, last for
  // QCRs. Separate pools guarantee the decorations cannot interact (e.g.
  // an ∃r.B successor never meets a ∀r.C constraint), keeping them inert.
  std::vector<RoleId> roles;
  for (std::size_t i = 0; i < std::max<std::size_t>(cfg.roles, 3); ++i)
    roles.push_back(t.declareRole(strprintf("%s_r%zu", cfg.name.c_str(), i)));
  const std::size_t poolSize = roles.size() / 3;
  auto existsRole = [&](std::uint64_t k) { return roles[k % poolSize]; };
  auto forallRole = [&](std::uint64_t k) { return roles[poolSize + k % poolSize]; };
  auto qcrRole = [&](std::uint64_t k) {
    return roles[2 * poolSize + k % (roles.size() - 2 * poolSize)];
  };

  if (cfg.roleHierarchy && poolSize >= 2)
    t.addSubObjectPropertyOf(roles[0], roles[1]);
  if (cfg.transitiveRoles) t.addTransitiveObjectProperty(roles[0]);

  // --- subsumption backbone: spanning tree + extra parent edges -------------
  std::vector<std::vector<ConceptId>> parents(n);
  std::size_t edges = 0;
  for (std::size_t i = 1; i < n && edges < cfg.subClassEdges; ++i) {
    parents[i].push_back(pickParent(rng, i, cfg.attachmentBias));
    ++edges;
  }
  while (edges < cfg.subClassEdges) {
    const std::size_t i = 1 + static_cast<std::size_t>(rng.below(n - 1));
    const ConceptId p = pickParent(rng, i, cfg.attachmentBias);
    if (std::find(parents[i].begin(), parents[i].end(), p) != parents[i].end())
      continue;
    parents[i].push_back(p);
    ++edges;
  }
  for (std::size_t i = 0; i < n; ++i)
    for (ConceptId p : parents[i])
      t.addSubClassOf(f.atom(static_cast<ConceptId>(i)), f.atom(p));

  // Strict-ancestor closure: edges only point to smaller indices, so one
  // ascending pass closes transitively.
  truth.ancestors.assign(n, DynamicBitset(n));
  truth.unsat.assign(n, false);
  for (std::size_t i = 1; i < n; ++i) {
    for (ConceptId p : parents[i]) {
      truth.ancestors[i].set(p);
      truth.ancestors[i] |= truth.ancestors[p];
    }
  }

  // --- equivalence aliases + immediate closure merge --------------------------
  // Alias pairs must merge into the ground truth *before* disjointness is
  // chosen, otherwise a disjoint pair could contradict an alias-induced
  // subsumption and silently make concepts unsatisfiable.
  std::vector<std::pair<ConceptId, ConceptId>> aliasPairs;
  {
    std::size_t made = 0, attempts = 0;
    while (made < cfg.equivalentAxioms && attempts < cfg.equivalentAxioms * 40) {
      ++attempts;
      const ConceptId a = static_cast<ConceptId>(rng.below(n));
      const ConceptId b = static_cast<ConceptId>(rng.below(n));
      // Chains are allowed (a concept may appear in several equivalences);
      // only comparable pairs are rejected, since collapsing a backbone
      // chain would entail equivalences the ground truth does not model.
      if (a == b) continue;
      if (truth.ancestors[a].test(b) || truth.ancestors[b].test(a)) continue;
      t.addEquivalentClasses({f.atom(a), f.atom(b)});
      aliasPairs.emplace_back(a, b);
      ++made;

      // Merge the classes: both get the union of ancestors plus each
      // other; everything below either inherits the merged upper set.
      DynamicBitset uni = truth.ancestors[a];
      uni |= truth.ancestors[b];
      truth.ancestors[a] = uni;
      truth.ancestors[b] = std::move(uni);
      truth.ancestors[a].set(b);
      truth.ancestors[b].set(a);
      for (std::size_t d = 0; d < n; ++d) {
        if (d == a || d == b) continue;
        if (truth.ancestors[d].test(a) || truth.ancestors[d].test(b)) {
          truth.ancestors[d] |= truth.ancestors[a];
          truth.ancestors[d].set(a);
          truth.ancestors[d].set(b);
          truth.ancestors[d].reset(d);
        }
      }
    }
  }

  // --- disjointness between provably unrelated subtrees -----------------------
  {
    std::size_t made = 0, attempts = 0;
    while (made < cfg.disjointAxioms && attempts < cfg.disjointAxioms * 60) {
      ++attempts;
      const ConceptId a = static_cast<ConceptId>(rng.below(n));
      const ConceptId b = static_cast<ConceptId>(rng.below(n));
      if (a == b) continue;
      if (truth.ancestors[a].test(b) || truth.ancestors[b].test(a)) continue;
      bool overlap = false;
      for (std::size_t d = 0; d < n && !overlap; ++d) {
        if (d == a || d == b) continue;
        if ((truth.ancestors[d].test(a) || d == a) &&
            (truth.ancestors[d].test(b) || d == b))
          overlap = true;
      }
      if (overlap) continue;
      t.addDisjointClasses({f.atom(a), f.atom(b)});
      ++made;
    }
  }

  // --- injected unsatisfiable concepts -----------------------------------------
  // Injected BEFORE the decorations so decoration fillers can be
  // restricted to satisfiable concepts (an ∃/≥ pointing at an unsat
  // filler would make its host unsat, which the ground truth would miss).
  //
  // C ⊑ Da ⊓ Db with Disjoint(Da, Db) over dedicated fresh helpers; the
  // contradiction is explicit and does not perturb the backbone closure.
  std::vector<std::pair<ConceptId, ConceptId>> unsatHelpers;  // (c, helper)
  for (std::size_t k = 0; k < cfg.unsatConcepts; ++k) {
    const ConceptId c = static_cast<ConceptId>(rng.below(n));
    if (truth.unsat[c]) continue;
    const ConceptId da =
        t.declareConcept(strprintf("%s_UnsatA%zu", cfg.name.c_str(), k));
    const ConceptId db =
        t.declareConcept(strprintf("%s_UnsatB%zu", cfg.name.c_str(), k));
    t.addSubClassOf(f.atom(c), f.atom(da));
    t.addSubClassOf(f.atom(c), f.atom(db));
    t.addDisjointClasses({f.atom(da), f.atom(db)});
    truth.unsat[c] = true;
    unsatHelpers.emplace_back(c, da);
    unsatHelpers.emplace_back(c, db);
  }

  // Resize the closure over the helper concepts and record c ⊑ helper.
  const std::size_t total = t.conceptCount();
  for (auto& bs : truth.ancestors) bs.resize(total);
  truth.ancestors.resize(total, DynamicBitset(total));
  truth.unsat.resize(total, false);
  for (auto [c, helper] : unsatHelpers) truth.ancestors[c].set(helper);

  // Unsat propagates to everything below an unsat concept (closure is
  // transitive, so a single pass suffices).
  for (std::size_t c = 0; c < total; ++c) {
    if (truth.unsat[c]) continue;
    for (std::size_t a : truth.ancestors[c].setBits()) {
      if (truth.unsat[a]) {
        truth.unsat[c] = true;
        break;
      }
    }
  }

  // --- inert decorations -------------------------------------------------------
  // Fillers of ∃/≥/≤ must be satisfiable, or the decoration would poison
  // its host. A deterministic scan finds a satisfiable filler. When there
  // is none (an injection hit the backbone root, so every backbone
  // concept is unsatisfiable), every host is already unsatisfiable and no
  // filler can change the ground truth: the scan wraps back to `start`.
  auto satConcept = [&](ConceptId start) {
    ConceptId c = start;
    for (std::size_t step = 0; step < n && truth.unsat[c]; ++step)
      c = (c + 1) % static_cast<ConceptId>(n);
    return c;
  };
  // Subjects for the non-EL decorations (∀ / QCR): uniform by default,
  // backbone leaves when cfg.nonElOnLeaves (see the GenConfig comment).
  std::vector<ConceptId> leaves;
  if (cfg.nonElOnLeaves) {
    std::vector<bool> isParent(n, false);
    for (std::size_t i = 0; i < n; ++i)
      for (ConceptId p : parents[i]) isParent[p] = true;
    for (std::size_t i = 0; i < n; ++i)
      if (!isParent[i]) leaves.push_back(static_cast<ConceptId>(i));
  }
  auto nonElSubject = [&]() {
    return leaves.empty() ? static_cast<ConceptId>(rng.below(n))
                          : leaves[rng.below(leaves.size())];
  };
  for (std::size_t k = 0; k < cfg.existentialAxioms; ++k) {
    const ConceptId a = static_cast<ConceptId>(rng.below(n));
    const ConceptId b = satConcept(static_cast<ConceptId>(rng.below(n)));
    t.addSubClassOf(f.atom(a), f.exists(existsRole(k), f.atom(b)));
  }
  for (std::size_t k = 0; k < cfg.universalAxioms; ++k) {
    const ConceptId a = nonElSubject();
    const ConceptId b = static_cast<ConceptId>(rng.below(n));
    t.addSubClassOf(f.atom(a), f.forall(forallRole(k), f.atom(b)));
  }
  // QCR decorations: ≥2 / ≤4 restrictions, cfg.qcrBundle of them conjoined
  // per SubClassOf axiom, exactly cfg.qcrAxioms QCR occurrences in total
  // (how Table V counts #QCRs; bridg-style rows pack several QCRs into one
  // axiom). Each restriction gets a (role, filler) pair unique per role
  // where possible. The fixed bounds ≥2 / ≤4 keep every combination
  // jointly satisfiable even when a host inherits restrictions over the
  // same role with comparable fillers: cross-merging always reduces counts
  // to 2 ≤ 4, and comparable fillers are never disjoint by construction.
  std::unordered_set<std::uint64_t> qcrUsed;
  const std::size_t bundle = std::max<std::size_t>(cfg.qcrBundle, 1);
  std::size_t emitted = 0;
  std::size_t qcrIndex = 0;
  while (emitted < cfg.qcrAxioms) {
    const ConceptId a = cfg.nonElOnLeaves
                            ? nonElSubject()
                            : static_cast<ConceptId>(rng.below(n));
    std::vector<ExprId> parts;
    for (std::size_t j = 0; j < bundle && emitted < cfg.qcrAxioms; ++j) {
      ConceptId b = satConcept(static_cast<ConceptId>(rng.below(n)));
      const RoleId r = qcrRole(qcrIndex);
      const auto key = [&](ConceptId filler) {
        return (static_cast<std::uint64_t>(filler) << 32) | r;
      };
      for (std::size_t tries = 0; tries < n && !qcrUsed.insert(key(b)).second;
           ++tries)
        b = satConcept((b + 1) % static_cast<ConceptId>(n));
      parts.push_back(qcrIndex % 2 == 0 ? f.atLeast(2, r, f.atom(b))
                                        : f.atMost(4, r, f.atom(b)));
      ++qcrIndex;
      ++emitted;
    }
    t.addSubClassOf(f.atom(a),
                    parts.size() == 1 ? parts[0] : f.conj(parts));
  }

  // --- inert annotation padding --------------------------------------------
  // Real ORE files carry label/comment/xref annotations that dominate
  // their axiom counts; emit the configured number so Table IV/V axiom
  // columns line up (see DESIGN.md §2).
  for (std::size_t k = 0; k < cfg.annotationAxioms; ++k) {
    const ConceptId c = static_cast<ConceptId>(rng.below(n));
    t.addAnnotation(c, strprintf("synthetic annotation %zu", k));
  }

  t.freeze();
  return out;
}

}  // namespace owlcl
