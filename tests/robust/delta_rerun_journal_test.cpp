// I/O cost of a delta commit (DESIGN.md §14): a leaf add or retract
// reopens one concept, and the rerun must settle on the order of n
// verdicts for it — routing settles only the reopened pairs — not the n²
// verdicts of re-routing the whole ontology; and the commit writes its
// post-delta state once, with one delta-WAL sync.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "owl/printer.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "robust/checkpoint.hpp"
#include "robust/delta_journal.hpp"
#include "support/test_dir.hpp"

namespace owlcl {
namespace {

/// Forwards to a rerun hook and counts the verdicts it is handed: one per
/// recordSettled call plus one per set bit of each recordSettledRow row.
class CountingHook : public CheckpointHook {
 public:
  CountingHook(CheckpointHook& inner, std::atomic<std::uint64_t>& verdicts)
      : inner_(inner), verdicts_(verdicts) {}

  void recordSettled(SettledKind kind, ConceptId x, ConceptId y,
                     std::uint64_t epoch) override {
    verdicts_.fetch_add(1, std::memory_order_relaxed);
    inner_.recordSettled(kind, x, y, epoch);
  }
  void recordSettledRow(SettledKind kind, ConceptId x,
                        const std::uint64_t* words, std::size_t nwords,
                        std::uint64_t epoch) override {
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < nwords; ++i) bits += std::popcount(words[i]);
    verdicts_.fetch_add(bits, std::memory_order_relaxed);
    inner_.recordSettledRow(kind, x, words, nwords, epoch);
  }
  void epochBarrier(
      const ClassifierProgress& progress,
      const std::function<ClassifierCheckpoint()>& capture) override {
    inner_.epochBarrier(progress, capture);
  }

 private:
  CheckpointHook& inner_;
  std::atomic<std::uint64_t>& verdicts_;
};

/// DeltaTxnSink decorator over a real DeltaJournalSink whose rerun hook
/// counts the verdicts each commit's rerun journals.
class CountingSink : public DeltaTxnSink {
 public:
  explicit CountingSink(DeltaJournalSink& inner) : inner_(inner) {}

  bool opBegin(std::uint32_t txid, std::string* error) override {
    return inner_.opBegin(txid, error);
  }
  bool opStage(std::uint32_t txid, bool isAdd, const std::string& stmt,
               std::string* error) override {
    return inner_.opStage(txid, isAdd, stmt, error);
  }
  CheckpointHook* beginRerun(const TBox& newTbox, std::uint64_t seed,
                             std::string* error) override {
    CheckpointHook* hook = inner_.beginRerun(newTbox, seed, error);
    if (hook == nullptr) return nullptr;
    verdicts_.store(0, std::memory_order_relaxed);
    counting_ = std::make_unique<CountingHook>(*hook, verdicts_);
    return counting_.get();
  }
  bool opCommit(std::uint32_t txid, const TBox& newTbox,
                const ClassifierCheckpoint& post, std::string* error) override {
    return inner_.opCommit(txid, newTbox, post, error);
  }
  bool opAbort(std::uint32_t txid, std::string* error) override {
    return inner_.opAbort(txid, error);
  }

  /// Verdicts journaled by the latest rerun.
  std::uint64_t rerunVerdicts() const {
    return verdicts_.load(std::memory_order_relaxed);
  }

 private:
  DeltaJournalSink& inner_;
  std::atomic<std::uint64_t> verdicts_{0};
  std::unique_ptr<CountingHook> counting_;
};

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

TEST(DeltaRerunJournal, LeafCommitJournalsLinearlyManyVerdicts) {
  // An EL-heavy routed ontology: an ∃-decorated DAG backbone with
  // equivalences, disjointness, unsatisfiable concepts and a thin ∀
  // residual on leaves.
  GenConfig gc;
  gc.name = "guard";
  gc.concepts = 300;
  gc.subClassEdges = 396;
  gc.existentialAxioms = 64;
  gc.universalAxioms = 2;
  gc.equivalentAxioms = 4;
  gc.disjointAxioms = 2;
  gc.unsatConcepts = 3;
  gc.nonElOnLeaves = true;
  gc.roleHierarchy = true;
  gc.transitiveRoles = true;
  gc.attachmentBias = 0.8;
  gc.seed = 5;
  const GeneratedOntology g = generateOntology(gc);
  TBox& tbox = *g.tbox;
  const std::size_t n = tbox.conceptCount();

  ClassifierConfig config;
  config.routeEl = ElRouting::kAuto;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  TableauReasoner reasoner(tbox);
  ParallelClassifier classifier(tbox, reasoner, config);
  const ClassificationResult base = classifier.classify(exec);
  ASSERT_TRUE(base.complete());
  ASSERT_GT(base.routedConcepts, n / 2) << "the ontology must route";

  CheckpointConfig cc;
  cc.dir = test::perTestDir();
  cc.fsyncPolicy = FsyncPolicy::kNever;
  const std::uint64_t hash = ontologyContentHash(tbox);
  auto mainMgr = std::make_unique<CheckpointManager>(cc, hash, config.seed);
  std::string err;
  ASSERT_TRUE(mainMgr->beginFresh(&err)) << err;
  DeltaJournalSink journal(cc, config.seed);
  ASSERT_TRUE(journal.open(hash, std::move(mainMgr), /*truncateWal=*/true,
                           &err))
      << err;
  CountingSink sink(journal);

  DeltaReclassifier delta(
      exec,
      [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      config);
  delta.adoptInitial(noOwn<const TBox>(&tbox), noOwn<ReasonerPlugin>(&reasoner),
                     noOwn<ParallelClassifier>(&classifier),
                     noOwn<const ClassificationResult>(&base));
  delta.setSink(&sink);

  ConceptId parent = 0;
  while (!g.truth.satisfiable(parent)) ++parent;
  const std::string leafAxiom =
      "SubClassOf(GuardLeaf " + fsEntityName(tbox.conceptName(parent)) + ")";

  // Add-leaf: the leaf is the whole cone.
  DeltaCommitInfo info;
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageAdd("Declaration(Class(GuardLeaf))", &err)) << err;
  ASSERT_TRUE(delta.stageAdd(leafAxiom, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.coneSize, 1u);
  EXPECT_GT(sink.rerunVerdicts(), 0u);
  EXPECT_LE(sink.rerunVerdicts(), 4 * (n + 1))
      << "an add-leaf rerun journaled " << sink.rerunVerdicts()
      << " verdicts for " << n + 1 << " concepts";

  // Retract-leaf: the same single-concept cone.
  ASSERT_TRUE(delta.beginTxn(&err)) << err;
  ASSERT_TRUE(delta.stageRetract(leafAxiom, &err)) << err;
  ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
  EXPECT_EQ(info.coneSize, 1u);
  EXPECT_LE(sink.rerunVerdicts(), 4 * (n + 1))
      << "a retract-leaf rerun journaled " << sink.rerunVerdicts()
      << " verdicts for " << n + 1 << " concepts";
}

TEST(DeltaRerunJournal, LeafCommitWritesOneSnapshotAndSyncsTheWalOnce) {
  GenConfig gc;
  gc.name = "writes";
  gc.concepts = 60;
  gc.subClassEdges = 80;
  gc.existentialAxioms = 10;
  gc.seed = 3;
  const GeneratedOntology g = generateOntology(gc);
  TBox& tbox = *g.tbox;

  ClassifierConfig config;
  config.routeEl = ElRouting::kAuto;
  ThreadPool pool(2);
  RealExecutor exec(pool);
  TableauReasoner reasoner(tbox);
  ParallelClassifier classifier(tbox, reasoner, config);
  const ClassificationResult base = classifier.classify(exec);
  ASSERT_TRUE(base.complete());

  CheckpointConfig cc;
  cc.dir = test::perTestDir();
  const std::uint64_t hash = ontologyContentHash(tbox);
  auto mainMgr = std::make_unique<CheckpointManager>(cc, hash, config.seed);
  std::string err;
  ASSERT_TRUE(mainMgr->beginFresh(&err)) << err;
  DeltaJournalSink sink(cc, config.seed);
  ASSERT_TRUE(sink.open(hash, std::move(mainMgr), /*truncateWal=*/true, &err))
      << err;

  DeltaReclassifier delta(
      exec,
      [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      config);
  delta.adoptInitial(noOwn<const TBox>(&tbox), noOwn<ReasonerPlugin>(&reasoner),
                     noOwn<ParallelClassifier>(&classifier),
                     noOwn<const ClassificationResult>(&base));
  delta.setSink(&sink);

  const std::string leafAxiom =
      "SubClassOf(WriteLeaf " + fsEntityName(tbox.conceptName(0)) + ")";
  const auto commit = [&](const char* what, const std::vector<StagedOp>& ops) {
    const std::uint64_t writes = snapshotFileWrites();
    const std::uint64_t syncs = sink.walSyncs();
    DeltaCommitInfo info;
    ASSERT_TRUE(delta.beginTxn(&err)) << err;
    for (const StagedOp& op : ops)
      ASSERT_TRUE(op.isAdd ? delta.stageAdd(op.stmt, &err)
                           : delta.stageRetract(op.stmt, &err))
          << err;
    ASSERT_TRUE(delta.commitTxn(&info, &err)) << err;
    EXPECT_EQ(info.coneSize, 1u) << what;
    EXPECT_EQ(snapshotFileWrites() - writes, 1u) << what;
    EXPECT_EQ(sink.walSyncs() - syncs, 1u) << what;

    // The one snapshot was renamed from the staging area into the main
    // area, and it is the committed generation's state.
    EXPECT_TRUE(std::filesystem::is_empty(DeltaJournalSink::rerunDir(cc.dir)))
        << what;
    const DeltaGeneration gen = delta.generation();
    ClassifierCheckpoint onDisk;
    ASSERT_TRUE(readNewestSnapshot(cc.dir, ontologyContentHash(*gen.tbox),
                                   config.seed, &onDisk, &err))
        << what << ": " << err;
    const ClassifierCheckpoint live = gen.classifier->captureCheckpoint();
    EXPECT_EQ(onDisk.store.pWords, live.store.pWords) << what;
    EXPECT_EQ(onDisk.store.kWords, live.store.kWords) << what;
    EXPECT_EQ(onDisk.store.sat, live.store.sat) << what;
  };
  commit("add-leaf",
         {{true, "Declaration(Class(WriteLeaf))"}, {true, leafAxiom}});
  commit("retract-leaf", {{false, leafAxiom}});
}

}  // namespace
}  // namespace owlcl
