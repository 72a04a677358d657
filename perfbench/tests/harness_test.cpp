// Tests of the benchmark's own machinery: the span tracer's self-time
// arithmetic, the oracle, and that every decorator is transparent (a
// traced run computes byte-identical taxonomies and served answers).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "harness/decorators.hpp"
#include "harness/trace.hpp"
#include "harness/workloads.hpp"
#include "owl/parser.hpp"
#include "owl/printer.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "robust/checkpoint.hpp"
#include "robust/delta_journal.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

Span span(std::uint32_t id, std::uint32_t parent, std::uint64_t start,
          std::uint64_t end, const char* name) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.startNs = start;
  s.endNs = end;
  s.name = name;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // root [0,100]: children A [10,40] and B [30,60] overlap (union 50), C
  // [90,120] sticks out past the root (10 inside); A has child [15,20].
  const std::vector<Span> spans = {
      span(1, 0, 0, 100, "root"),  span(2, 1, 10, 40, "a"),
      span(3, 1, 30, 60, "b"),     span(4, 2, 15, 20, "a.child"),
      span(5, 1, 90, 120, "c"),
  };
  const auto self = selfTimes(spans);
  EXPECT_EQ(self.at(1), 40u);  // 100 - (50 + 10)
  EXPECT_EQ(self.at(2), 25u);  // 30 - 5
  EXPECT_EQ(self.at(3), 30u);
  EXPECT_EQ(self.at(4), 5u);
  EXPECT_EQ(self.at(5), 30u);
}

TEST(SelfTime, ChildrenCoveringTheParentLeaveNoSelfTime) {
  const std::vector<Span> spans = {span(1, 0, 0, 10, "p"), span(2, 1, 0, 6, "x"),
                                   span(3, 1, 4, 10, "y")};
  EXPECT_EQ(selfTimes(spans).at(1), 0u);
}

TEST(Tracer, NestsSpansOnAThreadAndRecordsNothingWhenDisabled) {
  Tracer t;
  std::uint32_t outer = 0;
  {
    ScopedSpan a(&t, "outer", 7);
    outer = a.id();
    ScopedSpan b(&t, "inner", 7);
  }
  std::thread([&] { ScopedSpan c(&t, "other-thread", 8, outer); }).join();
  std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& s : spans) {
    const std::string name = s.name;
    EXPECT_EQ(s.parent, name == "outer" ? 0u : outer) << name;
    EXPECT_LE(s.startNs, s.endNs);
  }

  t.clear();
  t.setEnabled(false);
  { ScopedSpan d(&t, "dropped"); }
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(Tracer::current(), 0u);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0);
}

// --- classification: traced vs plain ------------------------------------------

struct Classified {
  std::string tree;
  std::size_t mismatches = 0;
  std::size_t spans = 0;
};

Classified classify(const owlcl::GenConfig& cfg, bool traced) {
  const owlcl::GeneratedOntology g = owlcl::generateOntology(cfg);
  owlcl::TBox tbox;
  owlcl::parseFunctionalSyntax(owlcl::toFunctionalSyntaxDocument(*g.tbox), tbox);
  owlcl::TableauReasoner reasoner(tbox);
  owlcl::ThreadPool pool(3);
  owlcl::RealExecutor exec(pool);
  Tracer tracer;
  TracedPlugin tplugin(reasoner, tracer);
  TracedExecutor texec(exec, tracer);
  owlcl::ClassifierConfig config;
  config.routeEl = owlcl::ElRouting::kAuto;
  owlcl::ParallelClassifier classifier(
      tbox, traced ? static_cast<owlcl::ReasonerPlugin&>(tplugin) : reasoner,
      config);
  const owlcl::ClassificationResult r =
      classifier.classify(traced ? static_cast<owlcl::Executor&>(texec) : exec);
  Classified out;
  std::ostringstream os;
  r.taxonomy.print(os, tbox);
  out.tree = os.str();
  out.mismatches = taxonomyMismatches(r.taxonomy, tbox, g);
  out.spans = tracer.spans().size();
  return out;
}

TEST(Decorators, PluginAndExecutorLeaveTheTaxonomyByteIdentical) {
  for (const owlcl::GenConfig& cfg :
       {elShape(120, 3), expressiveShape(60, 5), expressiveShape(60, 6)}) {
    const Classified plain = classify(cfg, false);
    const Classified traced = classify(cfg, true);
    EXPECT_EQ(plain.tree, traced.tree) << cfg.name << " seed " << cfg.seed;
    EXPECT_EQ(plain.mismatches, 0u);
    EXPECT_EQ(traced.mismatches, 0u);
    EXPECT_EQ(plain.spans, 0u);
    EXPECT_GT(traced.spans, 0u);
  }
}

TEST(Oracle, CountsMismatchesAgainstAnotherOntologysTruth) {
  // Same shape and concept names, different seed: a different DAG.
  const owlcl::GeneratedOntology a = owlcl::generateOntology(elShape(80, 1));
  const owlcl::GeneratedOntology b = owlcl::generateOntology(elShape(80, 2));
  owlcl::TBox tbox;
  owlcl::parseFunctionalSyntax(owlcl::toFunctionalSyntaxDocument(*a.tbox), tbox);
  owlcl::TableauReasoner reasoner(tbox);
  owlcl::ThreadPool pool(2);
  owlcl::RealExecutor exec(pool);
  owlcl::ParallelClassifier classifier(tbox, reasoner, {});
  const owlcl::ClassificationResult r = classifier.classify(exec);
  EXPECT_EQ(taxonomyMismatches(r.taxonomy, tbox, a), 0u);
  EXPECT_GT(taxonomyMismatches(r.taxonomy, tbox, b), 0u);
}

// --- serving with deltas: traced vs plain --------------------------------------

/// Runs a batch of requests (queries, an add-leaf and a retract-leaf
/// transaction, more queries) through `owlcl serve --checkpoint-dir`'s
/// object graph, optionally with all four decorators inserted, and
/// returns the response stream.
std::string serveBatchRun(const owlcl::GenConfig& cfg, bool traced,
                         const std::string& dir) {
  const owlcl::GeneratedOntology g = owlcl::generateOntology(cfg);
  owlcl::TBox tbox;
  owlcl::parseFunctionalSyntax(owlcl::toFunctionalSyntaxDocument(*g.tbox), tbox);
  owlcl::TableauReasoner reasoner(tbox);
  owlcl::ThreadPool pool(2);
  owlcl::RealExecutor exec(pool);
  Tracer tracer;
  TracedPlugin tplugin(reasoner, tracer);
  TracedExecutor texec(exec, tracer);
  owlcl::ReasonerPlugin& plugin =
      traced ? static_cast<owlcl::ReasonerPlugin&>(tplugin) : reasoner;
  owlcl::Executor& executor =
      traced ? static_cast<owlcl::Executor&>(texec) : exec;

  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  owlcl::CheckpointConfig cc;
  cc.dir = dir;
  owlcl::ClassifierConfig config;
  config.routeEl = owlcl::ElRouting::kAuto;
  auto manager = std::make_unique<owlcl::CheckpointManager>(
      cc, owlcl::ontologyContentHash(tbox), config.seed);
  std::string err;
  EXPECT_TRUE(manager->beginFresh(&err)) << err;
  TracedCheckpointHook mainHook(*manager, tracer);
  config.checkpoint = traced ? static_cast<owlcl::CheckpointHook*>(&mainHook)
                             : manager.get();

  owlcl::ParallelClassifier classifier(tbox, plugin, config);
  owlcl::Server server(tbox, classifier, reasoner, owlcl::ServerConfig{});
  owlcl::DeltaReclassifier delta(
      executor,
      [&](const owlcl::TBox& t) -> std::shared_ptr<owlcl::ReasonerPlugin> {
        struct Chain {
          std::unique_ptr<owlcl::TableauReasoner> r;
          std::unique_ptr<TracedPlugin> p;
        };
        auto c = std::make_shared<Chain>();
        c->r = std::make_unique<owlcl::TableauReasoner>(const_cast<owlcl::TBox&>(t));
        if (!traced) return std::shared_ptr<owlcl::ReasonerPlugin>(c, c->r.get());
        c->p = std::make_unique<TracedPlugin>(*c->r, tracer);
        return std::shared_ptr<owlcl::ReasonerPlugin>(c, c->p.get());
      },
      config);
  delta.adoptInitial(
      std::shared_ptr<const owlcl::TBox>(&tbox, [](const owlcl::TBox*) {}),
      std::shared_ptr<owlcl::ReasonerPlugin>(&plugin, [](owlcl::ReasonerPlugin*) {}),
      std::shared_ptr<owlcl::ParallelClassifier>(&classifier,
                                                 [](owlcl::ParallelClassifier*) {}),
      nullptr);
  owlcl::DeltaJournalSink sink(cc, config.seed);
  EXPECT_TRUE(sink.open(owlcl::ontologyContentHash(tbox), std::move(manager),
                        true, &err))
      << err;
  TracedDeltaSink tsink(sink, tracer);
  delta.setSink(traced ? static_cast<owlcl::DeltaTxnSink*>(&tsink) : &sink);
  server.setDeltaReclassifier(&delta);
  server.start([&] { return classifier.classify(executor); });

  const std::string leaf = "SubClassOf(<perfbench_Leaf> " +
                           owlcl::fsEntityName(g.tbox->conceptName(5)) + ")";
  std::string lines;
  auto queries = [&] {
    for (owlcl::ConceptId c = 0; c < 12; ++c) {
      const std::string a = g.tbox->conceptName(c);
      const std::string b = g.tbox->conceptName((c * 7 + 3) % 40);
      lines += "{\"op\":\"subs\",\"sub\":\"" + a + "\",\"sup\":\"" + b +
               "\",\"deadline_ms\":60000}\n";
      lines += "{\"op\":\"sat\",\"concept\":\"" + a + "\",\"deadline_ms\":60000}\n";
      lines += "{\"op\":\"descendants\",\"concept\":\"" + a +
               "\",\"deadline_ms\":60000}\n";
    }
  };
  queries();
  for (const char* verb : {"add-axiom", "retract-axiom"}) {
    lines += "{\"op\":\"begin-delta\"}\n{\"op\":\"" + std::string(verb) +
             "\",\"axiom\":\"" + owlcl::jsonEscape(leaf) + "\"}\n{\"op\":\"commit\"}\n";
    queries();
  }
  std::istringstream in(lines);
  std::ostringstream out;
  server.runBatch(in, out);
  server.drain();
  if (traced) {
    EXPECT_FALSE(tracer.spans().empty());
    EXPECT_GT(mainHook.records(), 0u);
    EXPECT_EQ(tsink.rerunHooks().size(), 2u);
  }
  std::filesystem::remove_all(dir);
  return out.str();
}

TEST(Decorators, HookSinkPluginAndExecutorLeaveServedAnswersByteIdentical) {
  // Relative to the working directory (ctest runs in the build tree).
  const std::string dir = "perfbench-test-" + std::to_string(::getpid());
  const owlcl::GenConfig cfg = elShape(120, 4);
  const std::string plain = serveBatchRun(cfg, false, dir);
  const std::string traced = serveBatchRun(cfg, true, dir);
  EXPECT_EQ(plain, traced);
  EXPECT_NE(plain.find("\"op\":\"commit\""), std::string::npos);
  EXPECT_EQ(plain.find("\"ok\":false"), std::string::npos) << plain;
}

}  // namespace
}  // namespace perfbench
