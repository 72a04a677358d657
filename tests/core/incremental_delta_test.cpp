// Transactional delta reclassification: canonical statement handling,
// affected-cone confinement, and end-to-end add/retract transactions whose
// committed taxonomy must be byte-identical to classifying the post-delta
// ontology from scratch — including retracts of told-seeded axioms,
// EL-purity-flipping deltas, empty deltas, rollback on injected factory
// faults, and multi-worker delta storms.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "elcore/el_reasoner.hpp"
#include "gen/generator.hpp"
#include "owl/el_fragment.hpp"
#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

// --- canonical statement units ----------------------------------------------

TEST(DeltaStatements, CanonicalizeNormalizesSpelling) {
  std::string a, b, err;
  ASSERT_TRUE(canonicalizeStatement("SubClassOf(A   B)", &a, &err)) << err;
  ASSERT_TRUE(canonicalizeStatement("SubClassOf( A\n B )", &b, &err)) << err;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, "SubClassOf(A B)");

  std::string decl;
  ASSERT_TRUE(canonicalizeStatement("Declaration(Class(X))", &decl, &err));
  EXPECT_EQ(decl, "Declaration(Class(X))");

  // Full-IRI names round-trip through <> bracketing.
  std::string iri;
  ASSERT_TRUE(canonicalizeStatement(
      "SubClassOf(<http://ex.org/onto#A> <http://ex.org/onto#B>)", &iri, &err))
      << err;
  EXPECT_EQ(iri, "SubClassOf(<http://ex.org/onto#A> <http://ex.org/onto#B>)");

  std::string out;
  EXPECT_FALSE(canonicalizeStatement("SubClassOf(A", &out, &err));
  EXPECT_FALSE(canonicalizeStatement("", &out, &err));
}

TEST(DeltaStatements, ApplyStagedOpsAddsAppendRetractsRemoveFirstMatch) {
  std::vector<std::string> stmts{
      "Declaration(Class(A))",
      "Declaration(Class(B))",
      "SubClassOf(A B)",
  };
  std::string err;
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(B A)"}}, &err)) << err;
  EXPECT_EQ(stmts.back(), "SubClassOf(B A)");
  ASSERT_TRUE(applyStagedOps(stmts, {{false, "SubClassOf(A B)"}}, &err));
  EXPECT_EQ(stmts.size(), 3u);

  EXPECT_FALSE(applyStagedOps(stmts, {{false, "SubClassOf(A B)"}}, &err));
  EXPECT_NE(err.find("retract does not match"), std::string::npos);
  EXPECT_FALSE(applyStagedOps(stmts, {{false, "Declaration(Class(A))"}}, &err));
  EXPECT_NE(err.find("declaration"), std::string::npos);
}

TEST(DeltaStatements, StatementListRoundTripsIriNames) {
  TBox t;
  parseFunctionalSyntax(R"(
    Prefix(ex:=<http://ex.org/onto#>)
    Ontology(
      Declaration(Class(ex:A)) Declaration(Class(ex:B))
      Declaration(ObjectProperty(ex:r))
      SubClassOf(ObjectSomeValuesFrom(ex:r ex:A) ex:B)
    ))",
                        t);
  const std::vector<std::string> stmts = statementsFromTBox(t);
  TBox back;
  std::string err;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, back, &err)) << err;
  EXPECT_EQ(back.conceptCount(), t.conceptCount());
  EXPECT_EQ(back.findConcept("http://ex.org/onto#A"), ConceptId{0});
  // Canonical text is a fixed point: regenerating gives the same list.
  EXPECT_EQ(statementsFromTBox(back), stmts);
}

// --- affected cone -----------------------------------------------------------
// The cone is every concept whose ⊥-module over old ∪ new reaches a
// changed axiom: exact sets, not just membership, so an over-approximation
// shows up as a failure too.

/// Cone of applying `ops` to the ontology `doc`, as concept names.
std::vector<std::string> coneOf(const char* doc,
                                const std::vector<StagedOp>& ops,
                                ConeResult* full = nullptr) {
  TBox oldT;
  parseFunctionalSyntax(doc, oldT);
  std::vector<std::string> stmts = statementsFromTBox(oldT);
  std::string err;
  EXPECT_TRUE(applyStagedOps(stmts, ops, &err)) << err;
  TBox newT;
  EXPECT_TRUE(buildTBoxFromStatements(stmts, newT, &err)) << err;
  oldT.freeze();
  newT.freeze();
  const ConeResult cone = computeAffectedCone(oldT, newT);
  if (full != nullptr) *full = cone;
  std::vector<std::string> names;
  for (const ConceptId c : cone.cone) names.push_back(newT.conceptName(c));
  std::sort(names.begin(), names.end());
  return names;
}

using Names = std::vector<std::string>;

TEST(DeltaCone, ConeConfinedToSignatureComponent) {
  // Adding C ⊑ B changes only C's module: A and B keep their subsumers
  // (the new pair B ⊒ C lives in column C), and the {X,Y} component shares
  // no signature with the delta at all.
  ConeResult cone;
  EXPECT_EQ(coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(Class(X)) Declaration(Class(Y))
      SubClassOf(B A)
      SubClassOf(Y X)
    ))",
                   {{true, "SubClassOf(C B)"}}, &cone),
            Names{"C"});
  EXPECT_FALSE(cone.fullCone);
  EXPECT_EQ(cone.changedAxioms, 1u);
}

TEST(DeltaCone, ExistentialFillerChangeReachesTheSubject) {
  // E ⊑ ∃r.C puts C in E's module, so a changed C axiom reaches E; D is
  // only C's told subsumer and F is unrelated.
  EXPECT_EQ(coneOf(R"(
    Ontology(
      Declaration(Class(C)) Declaration(Class(D)) Declaration(Class(E))
      Declaration(Class(F)) Declaration(Class(G))
      Declaration(ObjectProperty(r))
      SubClassOf(C D)
      SubClassOf(E ObjectSomeValuesFrom(r C))
      SubClassOf(F D)
    ))",
                   {{true, "SubClassOf(C G)"}}),
            (Names{"C", "E"}));
}

TEST(DeltaCone, RetractConeIsTheRetractedSubclass) {
  ConeResult cone;
  EXPECT_EQ(coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      SubClassOf(B A)
      SubClassOf(C B)
    ))",
                   {{false, "SubClassOf(C B)"}}, &cone),
            Names{"C"});
  EXPECT_EQ(cone.changedAxioms, 1u);
}

TEST(DeltaCone, AddedDisjointnessReachesBothSidesAndTheirSubclasses) {
  // Disjoint(P, Q) is non-local as soon as P or Q is in a module, so it
  // reaches P, Q and everything whose module holds either; Z is outside.
  EXPECT_EQ(coneOf(R"(
    Ontology(
      Declaration(Class(P)) Declaration(Class(Q)) Declaration(Class(X))
      Declaration(Class(Z))
      SubClassOf(X P)
      SubClassOf(X Q)
    ))",
                   {{true, "DisjointClasses(P Q)"}}),
            (Names{"P", "Q", "X"}));
}

TEST(DeltaCone, NewConceptsAreAlwaysInTheCone) {
  EXPECT_EQ(coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B))
      SubClassOf(B A)
    ))",
                   {{true, "Declaration(Class(N))"},
                    {true, "SubClassOf(Leaf A)"}}),
            (Names{"Leaf", "N"}));
}

TEST(DeltaCone, ChangeReachedFromTheAlwaysModuleForcesFullCone) {
  // ⊤ ⊑ ∃r.A is in every ⊥-module, so A is in every module signature and
  // a changed A axiom reaches every concept.
  ConeResult cone;
  const Names all = coneOf(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(X))
      Declaration(ObjectProperty(r))
      SubClassOf(owl:Thing ObjectSomeValuesFrom(r A))
    ))",
                           {{true, "SubClassOf(A B)"}}, &cone);
  EXPECT_TRUE(cone.fullCone);
  EXPECT_EQ(all, (Names{"A", "B", "X"}));
}

TEST(DeltaCone, UngroundedAxiomForcesFullCone) {
  TBox oldT;
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(X))
      SubClassOf(B A)
    ))",
                        oldT);
  std::vector<std::string> stmts = statementsFromTBox(oldT);
  std::string err;
  // ⊤ on the left is not ⊥-local: its effects reach every concept.
  ASSERT_TRUE(applyStagedOps(stmts, {{true, "SubClassOf(owl:Thing A)"}}, &err))
      << err;
  TBox newT;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, newT, &err)) << err;
  oldT.freeze();
  newT.freeze();
  const ConeResult cone = computeAffectedCone(oldT, newT);
  EXPECT_TRUE(cone.fullCone);
  EXPECT_EQ(cone.cone.size(), newT.conceptCount());
}

// --- end-to-end transactions -------------------------------------------------

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

std::string taxString(const Taxonomy& tax, const TBox& tbox) {
  std::ostringstream ss;
  tax.print(ss, tbox);
  return ss.str();
}

/// Generation 0 plus the harness that drives it.
struct Rig {
  explicit Rig(std::size_t workers, ClassifierConfig config = {})
      : pool(workers), exec(pool), config(config) {}

  void classifyBase() {
    reasoner = std::make_unique<TableauReasoner>(tbox);
    classifier =
        std::make_unique<ParallelClassifier>(tbox, *reasoner, config);
    result = classifier->classify(exec);
    ASSERT_TRUE(result.complete());
  }

  /// DeltaReclassifier over generation 0 with a tableau factory.
  std::unique_ptr<DeltaReclassifier> makeDelta() {
    auto delta = std::make_unique<DeltaReclassifier>(
        exec,
        [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
          return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
        },
        config);
    delta->adoptInitial(noOwn<const TBox>(&tbox),
                        noOwn<ReasonerPlugin>(reasoner.get()),
                        noOwn<ParallelClassifier>(classifier.get()),
                        noOwn<const ClassificationResult>(&result));
    return delta;
  }

  /// Classifies the delta's CURRENT statement list from scratch and
  /// returns the taxonomy rendering — the oracle every commit must match.
  std::string scratchTaxonomy(const std::vector<std::string>& stmts) {
    TBox t;
    std::string err;
    EXPECT_TRUE(buildTBoxFromStatements(stmts, t, &err)) << err;
    TableauReasoner r(t);
    ParallelClassifier c(t, r, config);
    const ClassificationResult res = c.classify(exec);
    EXPECT_TRUE(res.complete());
    return taxString(res.taxonomy, t);
  }

  std::string generationTaxonomy(DeltaReclassifier& delta) {
    const DeltaGeneration gen = delta.generation();
    return taxString(gen.result->taxonomy, *gen.tbox);
  }

  ThreadPool pool;
  RealExecutor exec;
  ClassifierConfig config;
  TBox tbox;
  std::unique_ptr<TableauReasoner> reasoner;
  std::unique_ptr<ParallelClassifier> classifier;
  ClassificationResult result;
};

constexpr const char* kSmallOntology = R"(
  Ontology(
    Declaration(Class(Person)) Declaration(Class(Student))
    Declaration(Class(Employee)) Declaration(Class(Course))
    Declaration(ObjectProperty(takes))
    SubClassOf(Student Person)
    SubClassOf(Employee Person)
    SubClassOf(ObjectSomeValuesFrom(takes Course) Student)
  ))";

TEST(DeltaReclassify, CommitMatchesFromScratch) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("Declaration(Class(PhdStudent))", &err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(PhdStudent Student)", &err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Employee Person)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(info.conceptCount, rig.tbox.conceptCount() + 1);
  EXPECT_FALSE(delta->txnOpen());

  const DeltaGeneration gen = delta->generation();
  EXPECT_TRUE(gen.classifier->countersConsistent());
  EXPECT_TRUE(gen.result->taxonomy.subsumes(
      gen.tbox->findConcept("Student"), gen.tbox->findConcept("PhdStudent")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, EmptyDeltaCommitsAsNoOp) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.coneSize, 0u);
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_TRUE(delta->generation().classifier->countersConsistent());
}

TEST(DeltaReclassify, AbortLeavesGenerationUntouched) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);
  const std::vector<std::string> stmtsBefore = delta->statements();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta->abortTxn(&err)) << err;
  EXPECT_FALSE(delta->txnOpen());
  EXPECT_EQ(delta->deltaEpoch(), 0u);
  EXPECT_EQ(delta->statements(), stmtsBefore);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  // The same generation objects are still adopted (no swap happened).
  EXPECT_EQ(delta->generation().classifier.get(), rig.classifier.get());
}

TEST(DeltaReclassify, BadRetractRollsBackAndTxnCanBeRetried) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Course Student)", &err)) << err;
  DeltaCommitInfo info;
  EXPECT_FALSE(delta->commitTxn(&info, &err));
  EXPECT_NE(err.find("retract does not match"), std::string::npos) << err;
  EXPECT_FALSE(delta->txnOpen());  // rolled back, not left open
  EXPECT_EQ(delta->deltaEpoch(), 0u);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_TRUE(delta->generation().classifier->countersConsistent());

  // The reclassifier is not poisoned: a corrected transaction commits.
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.deltaEpoch, 1u);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, FactoryFaultRollsBackToPreDeltaGeneration) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();

  bool injectFault = true;
  DeltaReclassifier delta(
      rig.exec,
      [&injectFault](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        if (injectFault) throw std::runtime_error("injected factory fault");
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      rig.config);
  delta.adoptInitial(noOwn<const TBox>(&rig.tbox),
                     noOwn<ReasonerPlugin>(rig.reasoner.get()),
                     noOwn<ParallelClassifier>(rig.classifier.get()),
                     noOwn<const ClassificationResult>(&rig.result));
  const std::string before = rig.generationTaxonomy(delta);

  std::string err;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd("SubClassOf(Course Person)", &err)) << err;
  DeltaCommitInfo info;
  EXPECT_FALSE(delta.commitTxn(&info, &err));
  EXPECT_NE(err.find("injected factory fault"), std::string::npos) << err;
  EXPECT_EQ(delta.deltaEpoch(), 0u);
  EXPECT_EQ(rig.generationTaxonomy(delta), before);
  EXPECT_TRUE(delta.generation().classifier->countersConsistent());

  // Same staged delta, healthy factory: commits cleanly after the fault.
  injectFault = false;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd("SubClassOf(Course Person)", &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));
}

TEST(DeltaReclassify, RetractOfToldSeededAxiomMatchesFromScratch) {
  ClassifierConfig cfg;
  cfg.toldSeeding = true;  // the retracted edge was seeded into K
  Rig rig(2, cfg);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::string err;
  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageRetract("SubClassOf(Student Person)", &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;

  const DeltaGeneration gen = delta->generation();
  EXPECT_FALSE(gen.result->taxonomy.subsumes(
      gen.tbox->findConcept("Person"), gen.tbox->findConcept("Student")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
  const TaxonomyIssues issues = verifyStructure(gen.result->taxonomy);
  EXPECT_TRUE(issues.ok()) << issues.summary();
}

TEST(DeltaReclassify, ElPurityFlippingDeltaSwitchesBackend) {
  // EL-only base; the factory routes pure-EL generations to the EL
  // saturation backend and everything else to the tableau — the delta
  // adds a ¬ axiom (flips purity off), then retracts it (flips it back).
  struct ElBackend : ReasonerPlugin {
    explicit ElBackend(const TBox& t) : el(t) { el.classify(); }
    bool isSatisfiable(ConceptId c, std::uint64_t* costNs) override {
      if (costNs != nullptr) *costNs = 1;
      return el.isSatisfiable(c);
    }
    bool isSubsumedBy(ConceptId sub, ConceptId sup,
                      std::uint64_t* costNs) override {
      if (costNs != nullptr) *costNs = 1;
      return el.subsumes(sup, sub);
    }
    std::uint64_t testCount() const override { return 0; }
    ElReasoner el;
  };

  Rig rig(2);
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      Declaration(ObjectProperty(r))
      SubClassOf(A B)
      SubClassOf(ObjectSomeValuesFrom(r A) C)
    ))",
                        rig.tbox);
  rig.classifyBase();

  int elBuilds = 0, tableauBuilds = 0;
  DeltaReclassifier delta(
      rig.exec,
      [&](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        const_cast<TBox&>(t).freeze();  // idempotent; EL check needs it
        if (isElTBox(t)) {
          ++elBuilds;
          return std::make_shared<ElBackend>(t);
        }
        ++tableauBuilds;
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      rig.config);
  delta.adoptInitial(noOwn<const TBox>(&rig.tbox),
                     noOwn<ReasonerPlugin>(rig.reasoner.get()),
                     noOwn<ParallelClassifier>(rig.classifier.get()),
                     noOwn<const ClassificationResult>(&rig.result));

  std::string err;
  DeltaCommitInfo info;
  const char* nonEl = "SubClassOf(ObjectComplementOf(A) C)";
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd(nonEl, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(tableauBuilds, 1);
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));

  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageRetract(nonEl, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(elBuilds, 1);
  EXPECT_EQ(delta.deltaEpoch(), 2u);
  EXPECT_EQ(rig.generationTaxonomy(delta),
            rig.scratchTaxonomy(delta.statements()));
}

// Random add/retract storm over a generated ontology; every commit must
// match the from-scratch oracle byte-for-byte. Runs with 4 workers so CI's
// TSan configuration exercises the concurrent rerun paths.
TEST(DeltaReclassify, DeltaStormMatchesFromScratchMultiWorker) {
  GenConfig gc;
  gc.name = "delta-storm";
  gc.concepts = 30;
  gc.subClassEdges = 45;
  gc.roles = 3;
  gc.existentialAxioms = 10;
  gc.equivalentAxioms = 2;
  gc.seed = 11;
  const GeneratedOntology g = generateOntology(gc);

  Rig rig(4);
  {
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(statementsFromTBox(*g.tbox), rig.tbox,
                                        &err))
        << err;
  }
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::mt19937_64 rng(1234);
  std::string err;
  for (int txn = 0; txn < 4; ++txn) {
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    // Adds: fresh subclass edges between existing concepts + one new
    // concept per transaction. Retracts: a currently-asserted axiom.
    const std::vector<std::string> stmts = delta->statements();
    std::vector<std::string> axioms;
    for (const std::string& s : stmts)
      if (s.rfind("SubClassOf(", 0) == 0) axioms.push_back(s);
    ASSERT_FALSE(axioms.empty());
    const std::string victim = axioms[rng() % axioms.size()];
    ASSERT_TRUE(delta->stageRetract(victim, &err)) << err << " " << victim;

    const std::string fresh = "S" + std::to_string(txn);
    ASSERT_TRUE(delta->stageAdd("Declaration(Class(" + fresh + "))", &err));
    const ConceptId a = static_cast<ConceptId>(rng() % rig.tbox.conceptCount());
    ASSERT_TRUE(delta->stageAdd(
        "SubClassOf(" + fresh + " " + rig.tbox.conceptName(a) + ")", &err))
        << err;

    DeltaCommitInfo info;
    ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
    EXPECT_EQ(info.deltaEpoch, static_cast<std::uint64_t>(txn + 1));
    EXPECT_TRUE(delta->generation().classifier->countersConsistent());
    ASSERT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()))
        << "txn " << txn << " diverged from the from-scratch oracle";
  }
}


// --- building an ontology up by deltas -------------------------------------
// Adds committed one transaction at a time must land on the same taxonomy
// as classifying the final ontology whole, whatever their order.

/// One transaction that adds `stmts` in order; fails the test on error.
void commitAdds(DeltaReclassifier& delta, const std::vector<std::string>& stmts) {
  std::string err;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  for (const std::string& s : stmts)
    ASSERT_TRUE(delta.stageAdd(s, &err)) << err << " " << s;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
}

void commitRetract(DeltaReclassifier& delta, const std::string& stmt) {
  std::string err;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageRetract(stmt, &err)) << err;
  DeltaCommitInfo info;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
}

ConceptId idOf(const DeltaGeneration& gen, const char* name) {
  return gen.tbox->findConcept(name);
}

TEST(DeltaReclassify, StepwiseInsertionSplicesIntoHierarchy) {
  Rig rig(2);
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B))
      Declaration(Class(C)) Declaration(Class(D))
    ))",
                        rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  for (const char* stmt : {"SubClassOf(C B)", "SubClassOf(D A)",
                           "SubClassOf(B A)"}) {  // the last splices B
    commitAdds(*delta, {stmt});
    const DeltaGeneration gen = delta->generation();
    const TaxonomyIssues issues = verifyStructure(gen.result->taxonomy);
    EXPECT_TRUE(issues.ok()) << stmt << "\n" << issues.summary();
    ASSERT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()))
        << "after " << stmt;
  }
  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  EXPECT_TRUE(tax.subsumes(idOf(gen, "A"), idOf(gen, "C")));
  EXPECT_TRUE(tax.subsumes(idOf(gen, "B"), idOf(gen, "C")));
  EXPECT_FALSE(tax.subsumes(idOf(gen, "B"), idOf(gen, "D")));
  EXPECT_EQ(delta->deltaEpoch(), 3u);
}

constexpr const char* kDisjointBase = R"(
  Ontology(
    Declaration(Class(P)) Declaration(Class(Q)) Declaration(Class(X))
    SubClassOf(X P)
    SubClassOf(X Q)
  ))";

TEST(DeltaReclassify, AddedDisjointnessMovesConceptToBottom) {
  Rig rig(2);
  parseFunctionalSyntax(kDisjointBase, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  commitAdds(*delta, {"DisjointClasses(P Q)"});
  const DeltaGeneration gen = delta->generation();
  EXPECT_EQ(gen.result->taxonomy.nodeOf(idOf(gen, "X")),
            Taxonomy::kBottomNode);
  EXPECT_NE(gen.result->taxonomy.nodeOf(idOf(gen, "P")),
            Taxonomy::kBottomNode);
  EXPECT_TRUE(gen.classifier->countersConsistent());
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, RetractedDisjointnessRestoresConcept) {
  Rig rig(2);
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(P)) Declaration(Class(Q)) Declaration(Class(X))
      SubClassOf(X P)
      SubClassOf(X Q)
      DisjointClasses(P Q)
    ))",
                        rig.tbox);
  rig.classifyBase();
  ASSERT_EQ(rig.result.taxonomy.nodeOf(rig.tbox.findConcept("X")),
            Taxonomy::kBottomNode);
  auto delta = rig.makeDelta();

  commitRetract(*delta, "DisjointClasses(P Q)");
  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  EXPECT_NE(tax.nodeOf(idOf(gen, "X")), Taxonomy::kBottomNode);
  EXPECT_TRUE(tax.subsumes(idOf(gen, "P"), idOf(gen, "X")));
  EXPECT_TRUE(tax.subsumes(idOf(gen, "Q"), idOf(gen, "X")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, RetractUndoesAddByteForByte) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);
  const std::vector<std::string> stmtsBefore = delta->statements();

  commitAdds(*delta, {"SubClassOf(Course Employee)"});
  ASSERT_NE(rig.generationTaxonomy(*delta), before);
  commitRetract(*delta, "SubClassOf(Course Employee)");
  EXPECT_EQ(delta->statements(), stmtsBefore);
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_EQ(delta->deltaEpoch(), 2u);
}

TEST(DeltaReclassify, AddedEquivalenceJoinsClasses) {
  Rig rig(2);
  parseFunctionalSyntax(R"(
    Ontology(
      Declaration(Class(A)) Declaration(Class(B)) Declaration(Class(C))
      SubClassOf(C A)
    ))",
                        rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();

  commitAdds(*delta, {"EquivalentClasses(A B)"});
  const DeltaGeneration gen = delta->generation();
  const Taxonomy& tax = gen.result->taxonomy;
  EXPECT_TRUE(tax.equivalent(idOf(gen, "A"), idOf(gen, "B")));
  EXPECT_TRUE(tax.subsumes(idOf(gen, "B"), idOf(gen, "C")));
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

TEST(DeltaReclassify, ReaddingAssertedAxiomLeavesTaxonomyUnchanged) {
  Rig rig(2);
  parseFunctionalSyntax(kSmallOntology, rig.tbox);
  rig.classifyBase();
  auto delta = rig.makeDelta();
  const std::string before = rig.generationTaxonomy(*delta);

  commitAdds(*delta, {"SubClassOf(Student Person)"});
  EXPECT_EQ(rig.generationTaxonomy(*delta), before);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
  EXPECT_TRUE(delta->generation().classifier->countersConsistent());
}

// Generation 0 holds only the declarations of a generated ontology; its
// axioms then arrive in a shuffled order, a few per transaction.
class DeltaInsertOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeltaInsertOrder, MatchesOracleForAnyOrder) {
  GenConfig gc;
  gc.name = "delta-order";
  gc.concepts = 40;
  gc.subClassEdges = 60;
  gc.equivalentAxioms = 4;
  gc.disjointAxioms = 4;
  gc.unsatConcepts = 1;
  gc.seed = 31337;
  const GeneratedOntology g = generateOntology(gc);

  std::vector<std::string> decls, axioms;
  for (const std::string& s : statementsFromTBox(*g.tbox))
    (s.rfind("Declaration(", 0) == 0 ? decls : axioms).push_back(s);
  ASSERT_FALSE(axioms.empty());
  std::mt19937_64 rng(GetParam());
  std::shuffle(axioms.begin(), axioms.end(), rng);

  Rig rig(2);
  {
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(decls, rig.tbox, &err)) << err;
  }
  rig.classifyBase();
  auto delta = rig.makeDelta();
  constexpr std::size_t kPerTxn = 8;
  for (std::size_t i = 0; i < axioms.size(); i += kPerTxn) {
    const std::size_t end = std::min(axioms.size(), i + kPerTxn);
    commitAdds(*delta, std::vector<std::string>(axioms.begin() + i,
                                                axioms.begin() + end));
  }

  const DeltaGeneration gen = delta->generation();
  ASSERT_EQ(gen.tbox->conceptCount(), g.tbox->conceptCount());
  const TaxonomyIssues semantic = verifyAgainstOracle(
      gen.result->taxonomy, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(semantic.ok()) << "order seed " << GetParam() << "\n"
                             << semantic.summary();
  const TaxonomyIssues structure = verifyStructure(gen.result->taxonomy);
  EXPECT_TRUE(structure.ok()) << structure.summary();
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
}

INSTANTIATE_TEST_SUITE_P(Orders, DeltaInsertOrder,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- differential sweep ------------------------------------------------------
// Random add/retract sequences on generated ontologies with ∃, ∀,
// equivalence, disjointness and ⊤-subject range axioms, routed, on 1 and
// 4 workers. Every commit
// must match a from-scratch classification of the same statements byte
// for byte — the oracle for the ⊥-module cone and for routing that
// settles only the reopened pairs.
struct SweepCase {
  std::uint64_t seed;
  std::size_t workers;
  std::size_t concepts36;  // ontology size in units of 36 concepts
};

// "(seed, workers)" at 36 concepts, "(seed, workers, concepts36)" wider:
// the test names of the 36-concept cases predate the size parameter.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << "(" << c.seed << ", " << c.workers;
  if (c.concepts36 != 1) *os << ", " << c.concepts36;
  *os << ")";
}

std::vector<SweepCase> sweepCases(std::initializer_list<std::uint64_t> seeds,
                                  std::size_t concepts36) {
  std::vector<SweepCase> cases;
  for (const std::uint64_t seed : seeds)
    for (const std::size_t workers : {1, 4})
      cases.push_back({seed, workers, concepts36});
  return cases;
}

class DeltaSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(DeltaSweep, EveryCommitMatchesFromScratch) {
  const auto [seed, workers, concepts36] = GetParam();
  GenConfig gc;
  gc.name = "sweep";
  gc.concepts = 36 * concepts36;
  gc.subClassEdges = 48 * concepts36;
  gc.existentialAxioms = 10 * concepts36;
  gc.universalAxioms = 4 * concepts36;
  gc.equivalentAxioms = 3 * concepts36;
  gc.disjointAxioms = 3 * concepts36;
  gc.unsatConcepts = 1;
  // Some seeds keep most concepts pure. The wide ontologies put the
  // non-EL residual on backbone leaves, so cone modules are non-trivial
  // and some new leaves land under impure parents.
  gc.nonElOnLeaves = seed % 2 == 0 || concepts36 > 1;
  gc.seed = seed;
  const GeneratedOntology g = generateOntology(gc);

  ClassifierConfig cfg;
  cfg.routeEl = ElRouting::kOn;
  cfg.toldSeeding = seed % 2 == 1;
  Rig rig(workers, cfg);
  {
    std::string err;
    ASSERT_TRUE(buildTBoxFromStatements(statementsFromTBox(*g.tbox), rig.tbox,
                                        &err))
        << err;
  }
  rig.classifyBase();
  auto delta = rig.makeDelta();

  std::vector<std::string> concepts, roles;
  for (ConceptId c = 0; c < rig.tbox.conceptCount(); ++c)
    concepts.push_back(fsEntityName(rig.tbox.conceptName(c)));
  for (RoleId r = 0; r < rig.tbox.roles().size(); ++r)
    roles.push_back(fsEntityName(rig.tbox.roles().name(r)));
  std::mt19937_64 rng(seed * 7919 + workers);
  const auto pick = [&rng](const std::vector<std::string>& v) {
    return v[rng() % v.size()];
  };

  std::string err;
  for (int txn = 0; txn < 8; ++txn) {
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    std::vector<std::string> asserted;
    for (const std::string& st : delta->statements())
      if (st.rfind("Declaration(", 0) != 0) asserted.push_back(st);
    std::ostringstream log;
    const int ops = 1 + static_cast<int>(rng() % 3);
    for (int op = 0; op < ops; ++op) {
      const std::string a = pick(concepts), b = pick(concepts);
      std::string stmt;
      bool add = true;
      switch (rng() % 8) {
        case 0:
          if (asserted.empty()) continue;
          {
            const std::size_t i = rng() % asserted.size();
            stmt = asserted[i];
            asserted.erase(asserted.begin() + static_cast<long>(i));
          }
          add = false;
          break;
        case 1:
          stmt = "SubClassOf(" + a + " " + b + ")";
          break;
        case 2:
          stmt = "SubClassOf(" + a + " ObjectSomeValuesFrom(" + pick(roles) +
                 " " + b + "))";
          break;
        case 3:
          stmt = "SubClassOf(" + a + " ObjectAllValuesFrom(" + pick(roles) +
                 " " + b + "))";
          break;
        case 4:
          stmt = "EquivalentClasses(" + a + " " + b + ")";
          break;
        case 5:
          stmt = "DisjointClasses(" + a + " " + b + ")";
          break;
        case 6:  // a range axiom: in every ⊥-module, so a full cone
          stmt = "SubClassOf(owl:Thing ObjectAllValuesFrom(" + pick(roles) +
                 " " + b + "))";
          break;
        default: {
          const std::string leaf =
              "Leaf" + std::to_string(txn) + "_" + std::to_string(op);
          ASSERT_TRUE(
              delta->stageAdd("Declaration(Class(" + leaf + "))", &err))
              << err;
          concepts.push_back(leaf);
          stmt = "SubClassOf(" + leaf + " " + a + ")";
          break;
        }
      }
      log << (add ? "+ " : "- ") << stmt << "\n";
      ASSERT_TRUE(add ? delta->stageAdd(stmt, &err)
                      : delta->stageRetract(stmt, &err))
          << err << " " << stmt;
    }
    DeltaCommitInfo info;
    ASSERT_TRUE(delta->commitTxn(&info, &err)) << err << "\n" << log.str();
    EXPECT_TRUE(delta->generation().classifier->countersConsistent());
    ASSERT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()))
        << "txn " << txn << " (cone " << info.coneSize << ") diverged:\n"
        << log.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaSweep,
                         ::testing::ValuesIn(sweepCases({1, 2, 3, 4}, 1)));
// Three times as wide, with the non-EL residual on backbone leaves.
INSTANTIATE_TEST_SUITE_P(Wide, DeltaSweep,
                         ::testing::ValuesIn(sweepCases({5, 6}, 3)));

// A leaf added under an impure parent (its ⊥-module reaches a ∀ axiom) is
// impure itself, so routing settles none of its negatives and the tableau
// decides what is left. Only its column — who subsumes the leaf — can hold
// a subsumption: no concept outside the one-concept cone is subsumed by a
// new name, so its row is settled without a test.
struct ImpureLeafCommit {
  std::size_t concepts = 0;  // before the commit
  DeltaCommitInfo info;
  ConeResult cone;           // recomputed over the committed generation
};

void commitImpureLeaf(ImpureLeafCommit* out) {
  GenConfig gc;
  gc.name = "impure";
  gc.concepts = 120;
  gc.subClassEdges = 150;
  gc.existentialAxioms = 20;
  gc.seed = 11;
  const GeneratedOntology g = generateOntology(gc);

  ClassifierConfig cfg;
  cfg.routeEl = ElRouting::kOn;
  Rig rig(1, cfg);
  const std::string parent = fsEntityName(g.tbox->conceptName(5));
  const std::string filler = fsEntityName(g.tbox->conceptName(7));
  std::vector<std::string> stmts = statementsFromTBox(*g.tbox);
  stmts.push_back("Declaration(ObjectProperty(impureRole))");
  stmts.push_back("SubClassOf(" + parent +
                  " ObjectAllValuesFrom(impureRole " + filler + "))");
  std::string err;
  ASSERT_TRUE(buildTBoxFromStatements(stmts, rig.tbox, &err)) << err;
  rig.classifyBase();
  out->concepts = rig.tbox.conceptCount();
  auto delta = rig.makeDelta();

  ASSERT_TRUE(delta->beginTxn(&err)) << err;
  ASSERT_TRUE(delta->stageAdd("Declaration(Class(ImpureLeaf))", &err)) << err;
  ASSERT_TRUE(delta->stageAdd("SubClassOf(ImpureLeaf " + parent + ")", &err))
      << err;
  ASSERT_TRUE(delta->commitTxn(&out->info, &err)) << err;
  EXPECT_EQ(out->info.coneSize, 1u);
  EXPECT_EQ(rig.generationTaxonomy(*delta),
            rig.scratchTaxonomy(delta->statements()));
  out->cone = computeAffectedCone(rig.tbox, *delta->generation().tbox);
}

TEST(DeltaReclassify, LeafUnderImpureParentRetestsOnlyItsColumn) {
  ImpureLeafCommit c;
  ASSERT_NO_FATAL_FAILURE(commitImpureLeaf(&c));
  const std::size_t n = c.concepts;
  // Reopening the leaf's whole row as well took 238 tests here (about 2n);
  // the column alone is at most n.
  EXPECT_LE(c.info.subsumptionTests, n);
}

// The module-signature rule settles the leaf's column outside the
// signature of its ⊥-module once the leaf is known satisfiable: every
// axiom outside the module is ⊥-local, so a model may make every concept
// outside that signature empty.
TEST(DeltaReclassify, ImpureLeafTestsOnlyItsModuleSignature) {
  ImpureLeafCommit c;
  ASSERT_NO_FATAL_FAILURE(commitImpureLeaf(&c));
  ASSERT_FALSE(c.cone.fullCone);
  const std::size_t signature = c.cone.moduleConcepts.count();
  EXPECT_LT(signature, c.concepts / 4);  // a backbone path, not the ontology
  EXPECT_LE(c.info.satTests + c.info.subsumptionTests, signature);
}

// A leaf commit saturates the EL axioms of its cone's ⊥-module, not the
// whole EL fragment.
TEST(DeltaReclassify, LeafCommitSaturatesOnlyItsModule) {
  GenConfig gc;
  gc.name = "modsat";
  gc.concepts = 200;
  gc.subClassEdges = 260;
  gc.existentialAxioms = 40;
  gc.universalAxioms = 10;
  gc.nonElOnLeaves = true;
  gc.seed = 23;
  const GeneratedOntology g = generateOntology(gc);

  ClassifierConfig cfg;
  cfg.routeEl = ElRouting::kOn;
  Rig rig(2, cfg);
  std::string err;
  ASSERT_TRUE(buildTBoxFromStatements(statementsFromTBox(*g.tbox), rig.tbox,
                                      &err))
      << err;
  rig.classifyBase();
  const std::uint64_t fragment = rig.result.routedAxioms;
  auto delta = rig.makeDelta();

  const std::string axiom =
      "SubClassOf(NewLeaf " +
      fsEntityName(rig.tbox.conceptName(rig.tbox.conceptCount() - 1)) + ")";
  for (const bool add : {true, false}) {
    const DeltaGeneration pre = delta->generation();
    DeltaCommitInfo info;
    ASSERT_TRUE(delta->beginTxn(&err)) << err;
    if (add) {
      ASSERT_TRUE(delta->stageAdd("Declaration(Class(NewLeaf))", &err)) << err;
    }
    ASSERT_TRUE(add ? delta->stageAdd(axiom, &err)
                    : delta->stageRetract(axiom, &err))
        << err;
    ASSERT_TRUE(delta->commitTxn(&info, &err)) << err;
    const DeltaGeneration post = delta->generation();
    EXPECT_EQ(rig.generationTaxonomy(*delta),
              rig.scratchTaxonomy(delta->statements()));

    const ConeResult cone = computeAffectedCone(*pre.tbox, *post.tbox);
    ASSERT_FALSE(cone.fullCone);
    std::uint64_t moduleEl = 0;
    for (std::size_t i = 0; i < cone.moduleAxioms.size(); ++i) {
      const ToldAxiom& ax = post.tbox->toldAxioms()[i];
      if (cone.moduleAxioms[i] != 0 && ax.kind != AxiomKind::kAnnotation &&
          isElSafeAxiom(*post.tbox, ax))
        ++moduleEl;
    }
    EXPECT_GT(post.result->routedAxioms, 0u);
    EXPECT_LE(post.result->routedAxioms, moduleEl);
    EXPECT_LT(post.result->routedAxioms, fragment / 4);
  }
}

}  // namespace
}  // namespace owlcl
