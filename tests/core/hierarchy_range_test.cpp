// Phase 3 (taxonomy construction) runs each divide pass as at most one
// contiguous concept-range task per worker. These tests pin what that
// must not change — the taxonomy, byte for byte, at any worker count,
// scheduling policy and executor, including more workers than concepts —
// and what it must change: how many tasks Phase 3 dispatches, while its
// virtual busy time stays 1000 ns per row handled.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "gen/mock_reasoner.hpp"
#include "owl/parser.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "simsched/virtual_executor.hpp"
#include "taxonomy/verify.hpp"

namespace owlcl {
namespace {

/// Forwards every call to `inner` and records, per interval between two
/// barriers, how many tasks were dispatched and the busy time after the
/// closing barrier. Phase 3's three passes are a run's last three
/// intervals. The classifier dispatches and waits from one thread only.
class CountingExecutor : public Executor {
 public:
  explicit CountingExecutor(Executor& inner) : inner_(inner) {}

  std::size_t workers() const override { return inner_.workers(); }
  std::size_t pickWorker(SchedulingPolicy policy) override {
    return inner_.pickWorker(policy);
  }
  void dispatch(std::size_t worker, Task task) override {
    ++dispatches_.back();
    inner_.dispatch(worker, std::move(task));
  }
  void barrier() override {
    inner_.barrier();
    busyAtBarrier_.push_back(inner_.busyNs());
    dispatches_.push_back(0);
  }
  std::uint64_t elapsedNs() const override { return inner_.elapsedNs(); }
  std::uint64_t busyNs() const override { return inner_.busyNs(); }

  /// Dispatches between barrier i-1 and barrier i (i = 0: before the first).
  const std::vector<std::size_t>& dispatches() const { return dispatches_; }
  const std::vector<std::uint64_t>& busyAtBarrier() const {
    return busyAtBarrier_;
  }

 private:
  Executor& inner_;
  std::vector<std::size_t> dispatches_{0};
  std::vector<std::uint64_t> busyAtBarrier_;
};

/// Every byte of a taxonomy's structure: node ids, members, edges.
std::string dump(const Taxonomy& tax) {
  std::ostringstream out;
  for (Taxonomy::NodeId id = 0; id < tax.nodeCount(); ++id) {
    const Taxonomy::Node& node = tax.node(id);
    out << id << ":";
    for (ConceptId m : node.members) out << " " << m;
    out << " |";
    for (Taxonomy::NodeId p : node.parents) out << " " << p;
    out << " |";
    for (Taxonomy::NodeId c : node.children) out << " " << c;
    out << "\n";
  }
  return out.str();
}

/// Equivalences, injected unsat concepts and a multi-parent DAG, so that
/// Algorithm 5 pruning leaves indirect subsumees out of the K rows.
GenConfig prunedShape(std::uint64_t seed) {
  GenConfig cfg;
  cfg.name = "phase3";
  cfg.concepts = 120;
  cfg.subClassEdges = 190;
  cfg.existentialAxioms = 20;
  cfg.equivalentAxioms = 8;
  cfg.disjointAxioms = 4;
  cfg.unsatConcepts = 3;
  cfg.seed = seed;
  return cfg;
}

/// Tiny ontologies for more workers than concepts. The generator needs
/// two concepts, so the one-concept ontology is written by hand.
GeneratedOntology tinyOntology(std::size_t concepts) {
  if (concepts == 1) {
    GeneratedOntology g;
    g.name = "phase3-single";
    g.tbox = std::make_unique<TBox>();
    parseFunctionalSyntax("Ontology(Declaration(Class(A)))", *g.tbox);
    g.tbox->freeze();
    g.truth.ancestors.assign(1, DynamicBitset(1));
    g.truth.unsat.assign(1, false);
    return g;
  }
  GenConfig cfg;
  cfg.name = "phase3-tiny";
  cfg.concepts = concepts;
  cfg.subClassEdges = concepts - 1;
  cfg.equivalentAxioms = 1;
  cfg.seed = 7 + concepts;
  return generateOntology(cfg);
}

ClassifierConfig prunedConfig(SchedulingPolicy policy) {
  ClassifierConfig config;
  config.enablePruning = true;
  config.toldSeeding = false;
  config.scheduling = policy;
  return config;
}

Taxonomy classifyWith(const GeneratedOntology& g, SchedulingPolicy policy,
                      std::size_t workers, bool realThreads) {
  MockReasoner mock(g.truth);
  ParallelClassifier classifier(*g.tbox, mock, prunedConfig(policy));
  if (realThreads) {
    ThreadPool pool(workers);
    RealExecutor exec(pool);
    return classifier.classify(exec).taxonomy;
  }
  VirtualExecutor exec(workers);
  return classifier.classify(exec).taxonomy;
}

void expectGroundTruth(const Taxonomy& tax, const GeneratedOntology& g) {
  const TaxonomyIssues structure = verifyStructure(tax);
  EXPECT_TRUE(structure.ok()) << structure.summary();
  const TaxonomyIssues semantic = verifyAgainstOracle(
      tax, [&g](ConceptId sup, ConceptId sub) {
        return g.truth.subsumes(sup, sub);
      });
  EXPECT_TRUE(semantic.ok()) << semantic.summary();
}

const char* policyName(SchedulingPolicy p) {
  switch (p) {
    case SchedulingPolicy::kRoundRobin: return "RoundRobin";
    case SchedulingPolicy::kLeastLoaded: return "LeastLoaded";
    case SchedulingPolicy::kSharedQueue: return "SharedQueue";
    case SchedulingPolicy::kSteal: return "Steal";
  }
  return "?";
}

TEST(HierarchyRanges, PruningLeavesIndirectSubsumeesOutOfK) {
  // Guards the premise of the parity sweep: if every K row held all its
  // subsumees, the reachability reduction would never be exercised.
  const GeneratedOntology g = generateOntology(prunedShape(3));
  MockReasoner mock(g.truth);
  ParallelClassifier classifier(*g.tbox, mock,
                                prunedConfig(SchedulingPolicy::kSteal));
  VirtualExecutor exec(1);
  const ClassificationResult r = classifier.classify(exec);
  ASSERT_GT(r.prunedWithoutTest, 0u);

  const PkStoreImage img = classifier.captureCheckpoint().store;
  const std::size_t n = g.tbox->conceptCount();
  const std::size_t stride = img.kWords.size() / n;
  std::size_t missing = 0;
  for (ConceptId x = 0; x < n; ++x)
    for (ConceptId y = 0; y < n; ++y) {
      if (x == y || !g.truth.satisfiable(y) || !g.truth.subsumes(x, y) ||
          g.truth.subsumes(y, x))
        continue;
      const std::uint64_t word = img.kWords[x * stride + y / 64];
      if (((word >> (y % 64)) & 1u) == 0) ++missing;
    }
  EXPECT_GT(missing, 0u) << "no K row misses a strict subsumee";
}

using ParityParam = std::tuple<std::size_t, SchedulingPolicy, bool>;

class HierarchyParity : public ::testing::TestWithParam<ParityParam> {};

TEST_P(HierarchyParity, MatchesOneWorkerAndGroundTruth) {
  const auto [workers, policy, realThreads] = GetParam();
  for (std::uint64_t seed : {3u, 11u}) {
    const GeneratedOntology g = generateOntology(prunedShape(seed));
    const Taxonomy reference =
        classifyWith(g, SchedulingPolicy::kSteal, 1, /*realThreads=*/false);
    const Taxonomy tax = classifyWith(g, policy, workers, realThreads);
    EXPECT_EQ(dump(tax), dump(reference)) << "seed " << seed;
    expectGroundTruth(tax, g);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HierarchyParity,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 7u, 8u),
                       ::testing::Values(SchedulingPolicy::kRoundRobin,
                                         SchedulingPolicy::kLeastLoaded,
                                         SchedulingPolicy::kSharedQueue,
                                         SchedulingPolicy::kSteal),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ParityParam>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) + "_" +
             policyName(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_Real" : "_Virtual");
    });

TEST(HierarchyRanges, FewerConceptsThanWorkers) {
  for (std::size_t concepts : {1u, 2u, 3u}) {
    const GeneratedOntology g = tinyOntology(concepts);
    ASSERT_EQ(g.tbox->conceptCount(), concepts);
    const Taxonomy reference =
        classifyWith(g, SchedulingPolicy::kSteal, 1, /*realThreads=*/false);
    expectGroundTruth(reference, g);
    for (std::size_t workers : {4u, 8u})
      for (SchedulingPolicy policy :
           {SchedulingPolicy::kRoundRobin, SchedulingPolicy::kLeastLoaded,
            SchedulingPolicy::kSharedQueue, SchedulingPolicy::kSteal})
        for (bool realThreads : {false, true})
          EXPECT_EQ(dump(classifyWith(g, policy, workers, realThreads)),
                    dump(reference))
              << concepts << " concepts, " << workers << " workers, "
              << policyName(policy) << (realThreads ? ", real" : ", virtual");
  }
}

/// Shaped like the classify-el benchmark's routed EL ontologies, at 300
/// concepts.
GenConfig routedShape() {
  GenConfig cfg;
  cfg.name = "phase3-routed";
  cfg.concepts = 300;
  cfg.subClassEdges = 380;
  cfg.roles = 6;
  cfg.existentialAxioms = 60;
  cfg.universalAxioms = 2;
  cfg.equivalentAxioms = 6;
  cfg.disjointAxioms = 3;
  cfg.unsatConcepts = 3;
  cfg.nonElOnLeaves = true;
  cfg.attachmentBias = 0.8;
  cfg.seed = 31;
  return cfg;
}

ClassificationResult classifyRouted(const GeneratedOntology& g,
                                    Executor& exec) {
  TableauReasoner reasoner(*g.tbox);
  ClassifierConfig config;
  config.routeEl = ElRouting::kAuto;
  ParallelClassifier classifier(*g.tbox, reasoner, config);
  return classifier.classify(exec);
}

TEST(HierarchyRanges, PhaseThreeDispatchesAtMostOneTaskPerWorkerPerPass) {
  const GeneratedOntology g = generateOntology(routedShape());
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  RealExecutor real(pool);
  CountingExecutor exec(real);
  const ClassificationResult r = classifyRouted(g, exec);
  ASSERT_GT(r.routedConcepts, 0u);
  expectGroundTruth(r.taxonomy, g);

  // Intervals: ..., [pass 1], [pass 2], [pass 3], [after the last barrier].
  const std::vector<std::size_t>& d = exec.dispatches();
  ASSERT_GE(d.size(), 4u);
  EXPECT_EQ(d.back(), 0u);
  for (std::size_t pass = 1; pass <= 3; ++pass) {
    const std::size_t tasks = d[d.size() - 5 + pass];
    EXPECT_GE(tasks, 1u) << "pass " << pass;
    EXPECT_LE(tasks, kWorkers) << "pass " << pass;
  }
}

TEST(HierarchyRanges, VirtualBusyTimeChargesEveryRow) {
  const GeneratedOntology g = generateOntology(routedShape());
  VirtualExecutor virt(4);
  CountingExecutor exec(virt);
  const ClassificationResult r = classifyRouted(g, exec);
  expectGroundTruth(r.taxonomy, g);

  // Pass 1 charges every concept; passes 2 and 3 every satisfiable class.
  const std::size_t n = g.tbox->conceptCount();
  const std::size_t classes = r.taxonomy.nodeCount() - 2;
  const std::vector<std::uint64_t>& busy = exec.busyAtBarrier();
  ASSERT_GE(busy.size(), 4u);
  const std::uint64_t phase3 = busy.back() - busy[busy.size() - 4];
  EXPECT_EQ(phase3, 1000 * (n + 2 * classes));
  EXPECT_EQ(r.busyNs, busy.back());
}

}  // namespace
}  // namespace owlcl
