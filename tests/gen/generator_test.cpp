#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "elcore/el_reasoner.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/metrics.hpp"
#include "owl/printer.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

TEST(Generator, DeterministicForSameSeed) {
  GenConfig cfg;
  cfg.concepts = 50;
  cfg.subClassEdges = 70;
  cfg.seed = 7;
  const auto a = generateOntology(cfg);
  const auto b = generateOntology(cfg);
  ASSERT_EQ(a.tbox->conceptCount(), b.tbox->conceptCount());
  ASSERT_EQ(a.tbox->toldAxioms().size(), b.tbox->toldAxioms().size());
  for (std::size_t c = 0; c < a.tbox->conceptCount(); ++c)
    EXPECT_TRUE(a.truth.ancestors[c] == b.truth.ancestors[c]);
}

TEST(Generator, MetricsMatchConfig) {
  GenConfig cfg;
  cfg.name = "m";
  cfg.concepts = 200;
  cfg.subClassEdges = 320;
  cfg.existentialAxioms = 50;
  cfg.universalAxioms = 10;
  cfg.qcrAxioms = 20;
  cfg.equivalentAxioms = 8;
  cfg.disjointAxioms = 12;
  cfg.seed = 3;
  const auto g = generateOntology(cfg);
  const OntologyMetrics m = computeMetrics(*g.tbox);
  EXPECT_EQ(m.concepts, 200u);
  EXPECT_EQ(m.subClassOf, 320u + 50u + 10u + 20u);  // backbone + decorations
  EXPECT_EQ(m.somes, 50u);
  EXPECT_EQ(m.alls, 10u);
  EXPECT_EQ(m.qcrs, 20u);
  EXPECT_EQ(m.equivalent, 8u);
  EXPECT_EQ(m.disjoint, 12u);
}

TEST(Generator, ElRowIsEl) {
  const auto rows = oreEl2015Suite();
  ASSERT_EQ(rows.size(), 9u);
  GenConfig cfg = rows[2].config;  // WBbt (pure EL)
  cfg.concepts = 200;              // shrink for the unit test
  cfg.subClassEdges = 350;
  cfg.existentialAxioms = 100;
  const auto g = generateOntology(cfg);
  EXPECT_TRUE(isElTBox(*g.tbox));
  const OntologyMetrics m = computeMetrics(*g.tbox);
  EXPECT_EQ(m.expressivity, "EL");
}

TEST(Generator, SuiteMetricsMatchPaperRows) {
  // Full-size check on one row of each suite. Axiom-count parity is only
  // asserted for EL rows: the Table V ontologies carry many property/
  // annotation/datatype axioms outside our class-axiom fragment, so their
  // generated axiom column undershoots by design (see DESIGN.md).
  {
    const PaperOntologyRow row = oreEl2015Suite()[0];
    const auto g = generateOntology(row.config);
    const OntologyMetrics m = computeMetrics(*g.tbox);
    EXPECT_EQ(m.concepts, row.paperConcepts) << row.config.name;
    EXPECT_GE(m.subClassOf, row.paperSubClassOf) << row.config.name;
    const double ratio = static_cast<double>(m.axioms) /
                         static_cast<double>(row.paperAxioms);
    EXPECT_GT(ratio, 0.9) << row.config.name << " axioms=" << m.axioms;
    EXPECT_LT(ratio, 1.1) << row.config.name << " axioms=" << m.axioms;
  }
  {
    const PaperOntologyRow row = oreQcr2014Suite()[4];  // bridg, 967 QCRs
    const auto g = generateOntology(row.config);
    const OntologyMetrics m = computeMetrics(*g.tbox);
    EXPECT_EQ(m.concepts, row.paperConcepts) << row.config.name;
    EXPECT_EQ(m.qcrs, row.paperQcrs) << row.config.name;
    EXPECT_GE(m.subClassOf, row.paperSubClassOf) << row.config.name;
  }
}

TEST(Generator, GroundTruthIsTransitivelyClosed) {
  GenConfig cfg;
  cfg.concepts = 120;
  cfg.subClassEdges = 200;
  cfg.equivalentAxioms = 5;
  cfg.seed = 11;
  const auto g = generateOntology(cfg);
  const std::size_t n = g.tbox->conceptCount();
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t a : g.truth.ancestors[c].setBits()) {
      for (std::size_t aa : g.truth.ancestors[a].setBits()) {
        if (aa == c) continue;  // equivalence partners close into cycles
        EXPECT_TRUE(g.truth.ancestors[c].test(aa))
            << "ancestor closure broken at " << c << " -> " << a << " -> " << aa;
      }
    }
  }
}

// The decisive property: the generated axioms entail *exactly* the ground
// truth. Cross-check against the real tableau reasoner on several seeds.
class GeneratorTruthTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorTruthTest, TableauAgreesWithGroundTruth) {
  GenConfig cfg;
  cfg.concepts = 40;
  cfg.subClassEdges = 60;
  cfg.existentialAxioms = 15;
  cfg.universalAxioms = 6;
  cfg.qcrAxioms = 8;
  cfg.equivalentAxioms = 3;
  cfg.disjointAxioms = 5;
  cfg.unsatConcepts = 2;
  cfg.seed = GetParam();
  auto g = generateOntology(cfg);
  TableauReasoner reasoner(*g.tbox);

  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId c = 0; c < n; ++c)
    ASSERT_EQ(reasoner.isSatisfiable(c), g.truth.satisfiable(c))
        << "sat mismatch at " << g.tbox->conceptName(c) << " seed " << GetParam();
  for (ConceptId x = 0; x < n; ++x) {
    for (ConceptId y = 0; y < n; ++y) {
      ASSERT_EQ(reasoner.isSubsumedBy(y, x), g.truth.subsumes(x, y))
          << g.tbox->conceptName(y) << " ⊑ " << g.tbox->conceptName(x)
          << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorTruthTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// EL-only configs must also agree with the EL saturation reasoner.
class GeneratorElTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorElTest, ElReasonerAgreesWithGroundTruth) {
  GenConfig cfg;
  cfg.concepts = 60;
  cfg.subClassEdges = 90;
  cfg.existentialAxioms = 25;
  cfg.equivalentAxioms = 4;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.seed = GetParam();
  auto g = generateOntology(cfg);
  ASSERT_TRUE(isElTBox(*g.tbox));
  ElReasoner el(*g.tbox);
  el.classify();
  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y)
      ASSERT_EQ(el.subsumes(x, y), g.truth.subsumes(x, y))
          << g.tbox->conceptName(y) << " ⊑ " << g.tbox->conceptName(x)
          << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorElTest,
                         ::testing::Values(4, 9, 16, 25, 36));

// perfbench's input shapes (perfbench/harness/workloads.cpp), copied so
// the generator's own tests pin what the benchmark generates.
GenConfig elShape(std::size_t concepts, std::uint64_t seed) {
  GenConfig cfg;
  cfg.name = "perf-el";
  cfg.concepts = concepts;
  cfg.subClassEdges = concepts * 370 / 280;
  cfg.roles = 6;
  cfg.existentialAxioms = concepts * 60 / 280;
  cfg.universalAxioms = 2;
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 3;
  cfg.nonElOnLeaves = true;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = seed;
  return cfg;
}

GenConfig expressiveShape(std::size_t concepts, std::uint64_t seed) {
  GenConfig cfg;
  cfg.name = "perf-expr";
  cfg.concepts = concepts;
  cfg.subClassEdges = concepts * 260 / 180;
  cfg.roles = 6;
  cfg.existentialAxioms = concepts * 90 / 180;
  cfg.universalAxioms = concepts * 40 / 180;
  cfg.equivalentAxioms = 4;
  cfg.disjointAxioms = 2;
  cfg.unsatConcepts = 3;
  cfg.roleHierarchy = true;
  cfg.transitiveRoles = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = seed;
  return cfg;
}

GenConfig qcrShape(std::uint64_t seed) {
  GenConfig cfg;
  cfg.name = "pin-qcr";
  cfg.concepts = 120;
  cfg.subClassEdges = 170;
  cfg.existentialAxioms = 40;
  cfg.universalAxioms = 15;
  cfg.qcrAxioms = 24;
  cfg.qcrBundle = 3;
  cfg.equivalentAxioms = 5;
  cfg.disjointAxioms = 6;
  cfg.annotationAxioms = 10;
  cfg.unsatConcepts = 4;
  cfg.seed = seed;
  return cfg;
}

/// FNV-1a 64 of the rendered functional-syntax document.
std::uint64_t renderedHash(const GenConfig& cfg) {
  const GeneratedOntology g = generateOntology(cfg);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char ch : toFunctionalSyntaxDocument(*g.tbox)) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Every seed keeps generating the same ontology byte for byte. The hashes
// were taken before the all-unsatisfiable-backbone fix (see the next
// test), so they also pin that the fix changed no seed that terminated.
TEST(Generator, RenderedTextIsPinnedPerSeed) {
  struct Pin {
    GenConfig cfg;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {elShape(280, 1), 0x739972436695fea4ull},
      {elShape(280, 2), 0x4567515af28f6d05ull},
      {elShape(280, 3), 0xfbd3c2ac3e04db3aull},
      {elShape(280, 4), 0x3c11d84846229f30ull},
      {elShape(280, 5), 0xbe141c1417c3b03aull},
      {elShape(280, 6), 0x47b6ccfd4426e1f0ull},
      {elShape(280, 7), 0x1ede1327bfc79174ull},
      {elShape(280, 8), 0x64b8a3ab25c7b9faull},
      {elShape(280, 934), 0x9f22574577cca443ull},
      {elShape(280, 936), 0x22d05de362d6a3c0ull},
      {expressiveShape(180, 1), 0x8ede092da6bb5beeull},
      {expressiveShape(180, 2), 0x9fec1f899558d694ull},
      {expressiveShape(180, 3), 0x69b5eee222cd35d4ull},
      {expressiveShape(180, 4), 0x33d121d01b04b34full},
      {expressiveShape(180, 5), 0x792418e4f0a400bfull},
      {expressiveShape(180, 6), 0x4702156649e84c00ull},
      {expressiveShape(180, 7), 0x1d0029c765cf9edeull},
      {expressiveShape(180, 8), 0x944a77626cee32abull},
      {expressiveShape(180, 66), 0x582e6022a745b970ull},
      {expressiveShape(180, 68), 0x10067cdc5f324cbaull},
      {qcrShape(1), 0xbffc082669be0b20ull},
      {qcrShape(2), 0x4d246ec7bf9ef7eeull},
      {qcrShape(3), 0xe0c3276d958bffa5ull},
      {qcrShape(4), 0xa4140abc64a9f7e6ull},
  };
  for (const Pin& p : pins)
    EXPECT_EQ(renderedHash(p.cfg), p.hash)
        << p.cfg.name << " seed " << p.cfg.seed;
}

// An unsatisfiable-concept injection on the backbone root makes every
// backbone concept unsatisfiable, leaving no satisfiable ∃/QCR filler.
// Generation must still terminate, and the ontology must classify to its
// ground truth.
TEST(Generator, AllUnsatisfiableBackboneTerminatesAndMatchesTruth) {
  for (const GenConfig& cfg : {elShape(280, 935), expressiveShape(180, 67)}) {
    const GeneratedOntology g = generateOntology(cfg);
    EXPECT_FALSE(g.truth.satisfiable(0)) << cfg.name << ": root stays unsat";
    ClassifierConfig config;
    config.routeEl = ElRouting::kAuto;
    TableauReasoner reasoner(*g.tbox);
    ParallelClassifier classifier(*g.tbox, reasoner, config);
    ThreadPool pool(2);
    RealExecutor exec(pool);
    const ClassificationResult r = classifier.classify(exec);
    ASSERT_TRUE(r.complete()) << cfg.name;
    const TaxonomyIssues issues =
        verifyAgainstOracle(r.taxonomy, [&g](ConceptId sup, ConceptId sub) {
          return g.truth.subsumes(sup, sub);
        });
    EXPECT_TRUE(issues.ok()) << cfg.name << " seed " << cfg.seed << "\n"
                             << issues.summary();
  }
}

TEST(MockReasoner, AnswersFromGroundTruth) {
  GenConfig cfg;
  cfg.concepts = 30;
  cfg.subClassEdges = 45;
  cfg.unsatConcepts = 1;
  cfg.seed = 99;
  auto g = generateOntology(cfg);
  MockReasoner mock(g.truth);
  const std::size_t n = g.tbox->conceptCount();
  for (ConceptId x = 0; x < n; ++x) {
    EXPECT_EQ(mock.isSatisfiable(x), g.truth.satisfiable(x));
    for (ConceptId y = 0; y < n; ++y)
      EXPECT_EQ(mock.isSubsumedBy(y, x), g.truth.subsumes(x, y));
  }
  EXPECT_GT(mock.testCount(), 0u);
}

TEST(CostModel, DeterministicAndScaled) {
  CostModel cm;
  cm.baseNs = 1000;
  EXPECT_EQ(cm.subsCost(1, 2), cm.subsCost(1, 2));
  EXPECT_NE(cm.subsCost(1, 2), cm.subsCost(2, 1));  // jitter is per ordered pair
  cm.markHardConcepts(10, 2, 100, 5);
  std::size_t hard = 0;
  for (std::uint32_t h : cm.hardness)
    if (h == 100) ++hard;
  EXPECT_EQ(hard, 2u);
  // A hard concept's tests cost ~100×.
  CostModel plain;
  plain.baseNs = 1000;
  ConceptId hardId = 0;
  while (cm.hardness[hardId] == 1u) ++hardId;
  EXPECT_GT(cm.subsCost(hardId, 9), 50 * plain.subsCost(hardId, 9) / 1);
  EXPECT_GE(cm.satCost(hardId), 100u * 600u / 2u);
}

}  // namespace
}  // namespace owlcl
