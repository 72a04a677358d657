// bench_incremental — delta reclassification vs from-scratch cost
// (src/core/incremental, DESIGN.md §14).
//
// For each workload the base ontology is classified once, then a stream
// of single-axiom transactions (leaf adds under random parents,
// retracts of random told subclass axioms) is committed through the
// DeltaReclassifier. Every commit is timed, and the SAME post-delta
// statement list is also classified from scratch — so each transaction
// yields a (delta_ms, full_ms) pair plus the affected-cone size. The
// parity invariant is enforced, not sampled: a committed taxonomy that
// differs from the from-scratch taxonomy is FATAL.
//
// Output: a human-readable delta-vs-full table on stdout and
// BENCH_incremental.json for CI trend tracking. `--quick` shrinks the
// workloads for the CI smoke job.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "core/incremental.hpp"
#include "core/parallel_classifier.hpp"
#include "core/real_executor.hpp"
#include "gen/generator.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "util/stopwatch.hpp"

namespace owlcl {
namespace {

template <typename T>
std::shared_ptr<T> noOwn(T* p) {
  return std::shared_ptr<T>(p, [](T*) {});
}

std::string taxString(const Taxonomy& tax, const TBox& tbox) {
  std::ostringstream ss;
  tax.print(ss, tbox);
  return ss.str();
}

double medianMs(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

struct TxnSample {
  double deltaMs = 0.0;
  double fullMs = 0.0;
  std::size_t coneSize = 0;
  bool isAdd = true;
};

struct WorkloadResult {
  std::string name;
  std::size_t concepts = 0;
  double baseMs = 0.0;
  std::vector<TxnSample> txns;
};

/// Builds one ontology out of `modules` disjoint generated modules —
/// incremental classification pays off exactly when the edit stays
/// inside one module, so the workload must actually have modules.
WorkloadResult runWorkload(const std::string& name,
                           const std::vector<GenConfig>& modules,
                           std::size_t workers, std::size_t txnCount,
                           ElRouting routeEl = ElRouting::kOff) {
  WorkloadResult wr;
  wr.name = name;

  std::vector<std::string> allStmts;
  for (const GenConfig& gc : modules) {
    const GeneratedOntology part = generateOntology(gc);
    const std::vector<std::string> stmts = statementsFromTBox(*part.tbox);
    allStmts.insert(allStmts.end(), stmts.begin(), stmts.end());
  }
  auto tbox = std::make_shared<TBox>();
  std::string err;
  if (!buildTBoxFromStatements(allStmts, *tbox, &err)) {
    std::fprintf(stderr, "FATAL: workload merge: %s\n", err.c_str());
    std::abort();
  }
  wr.concepts = tbox->conceptCount();

  ThreadPool pool(workers);
  RealExecutor exec(pool);
  ClassifierConfig config;
  config.randomCycles = 1;
  config.routeEl = routeEl;

  TableauReasoner reasoner(*tbox);
  ParallelClassifier classifier(*tbox, reasoner, config);
  Stopwatch baseSw;
  ClassificationResult base = classifier.classify(exec);
  wr.baseMs = static_cast<double>(baseSw.elapsedNs()) / 1e6;
  if (!base.complete()) {
    std::fprintf(stderr, "FATAL: base classification incomplete (%s)\n",
                 name.c_str());
    std::abort();
  }

  DeltaReclassifier delta(
      exec,
      [](const TBox& t) -> std::shared_ptr<ReasonerPlugin> {
        return std::make_shared<TableauReasoner>(const_cast<TBox&>(t));
      },
      config);
  delta.adoptInitial(std::shared_ptr<const TBox>(tbox),
                     noOwn<ReasonerPlugin>(&reasoner),
                     noOwn<ParallelClassifier>(&classifier),
                     noOwn<const ClassificationResult>(&base));

  std::mt19937_64 rng(modules.front().seed * 7919 + 17);
  for (std::size_t i = 0; i < txnCount; ++i) {
    TxnSample sample;
    if (!delta.beginTxn(&err)) {
      std::fprintf(stderr, "FATAL: beginTxn: %s\n", err.c_str());
      std::abort();
    }
    // Even transactions add a fresh leaf under a random existing concept;
    // odd ones retract a random told subclass axiom.
    const std::vector<std::string> stmts = delta.statements();
    sample.isAdd = (i % 2 == 0);
    bool staged = false;
    if (!sample.isAdd) {
      std::vector<std::string> subAxioms;
      for (const std::string& s : stmts)
        if (s.rfind("SubClassOf(", 0) == 0) subAxioms.push_back(s);
      if (!subAxioms.empty()) {
        staged = delta.stageRetract(subAxioms[rng() % subAxioms.size()], &err);
        if (!staged) {
          std::fprintf(stderr, "FATAL: stageRetract: %s\n", err.c_str());
          std::abort();
        }
      }
    }
    if (!staged) {
      sample.isAdd = true;
      const DeltaGeneration gen = delta.generation();
      const std::string parent = gen.tbox->conceptName(
          static_cast<ConceptId>(rng() % gen.tbox->conceptCount()));
      const std::string leaf = "BenchLeaf" + std::to_string(i);
      if (!delta.stageAdd("Declaration(Class(" + leaf + "))", &err) ||
          !delta.stageAdd("SubClassOf(" + leaf + " " + parent + ")", &err)) {
        std::fprintf(stderr, "FATAL: stageAdd: %s\n", err.c_str());
        std::abort();
      }
    }

    DeltaCommitInfo info;
    Stopwatch sw;
    if (!delta.commitTxn(&info, &err)) {
      std::fprintf(stderr, "FATAL: commitTxn: %s\n", err.c_str());
      std::abort();
    }
    sample.deltaMs = static_cast<double>(sw.elapsedNs()) / 1e6;
    sample.coneSize = info.coneSize;

    // From-scratch cost of the SAME post-delta ontology, and the parity
    // check that makes the speedup claim trustworthy.
    TBox full;
    if (!buildTBoxFromStatements(delta.statements(), full, &err)) {
      std::fprintf(stderr, "FATAL: rebuild: %s\n", err.c_str());
      std::abort();
    }
    TableauReasoner fullReasoner(full);
    ParallelClassifier fullClassifier(full, fullReasoner, config);
    Stopwatch fullSw;
    const ClassificationResult fullRes = fullClassifier.classify(exec);
    sample.fullMs = static_cast<double>(fullSw.elapsedNs()) / 1e6;
    const DeltaGeneration gen = delta.generation();
    if (!fullRes.complete() ||
        taxString(fullRes.taxonomy, full) !=
            taxString(gen.result->taxonomy, *gen.tbox)) {
      std::fprintf(stderr,
                   "FATAL: delta taxonomy diverged from from-scratch "
                   "(%s txn %zu)\n",
                   name.c_str(), i);
      std::abort();
    }
    if (!gen.classifier->countersConsistent()) {
      std::fprintf(stderr, "FATAL: countersConsistent failed after commit\n");
      std::abort();
    }
    wr.txns.push_back(sample);
  }
  return wr;
}

}  // namespace
}  // namespace owlcl

int main(int argc, char** argv) {
  using namespace owlcl;

  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const std::size_t workers = 4;
  const std::size_t txns = quick ? 6 : 14;

  // Each workload is a union of disjoint modules (distinct name prefixes
  // keep the told-axiom signatures disconnected), so a single-axiom edit
  // has a module-sized cone, not an ontology-sized one.
  const auto modules = [](const char* prefix, std::size_t count,
                          std::size_t conceptsEach, std::size_t edgesEach,
                          unsigned seed, std::size_t universalEach = 0) {
    std::vector<GenConfig> mods;
    for (std::size_t m = 0; m < count; ++m) {
      GenConfig gc;
      gc.name = std::string(prefix) + std::to_string(m);
      gc.concepts = conceptsEach;
      gc.subClassEdges = edgesEach;
      gc.roles = 3;
      gc.existentialAxioms = conceptsEach / 6;
      gc.universalAxioms = universalEach;
      gc.nonElOnLeaves = universalEach != 0;
      gc.seed = seed + static_cast<unsigned>(m);
      mods.push_back(gc);
    }
    return mods;
  };

  std::vector<WorkloadResult> results;
  results.push_back(runWorkload(
      "inc-small", modules("ism", quick ? 4 : 6, quick ? 25 : 40,
                           quick ? 34 : 56, 5),
      workers, txns));
  if (!quick)
    results.push_back(runWorkload(
        "inc-large", modules("ilg", 10, 55, 80, 21), workers, txns));
  // EL-heavy with a ∀ residual on backbone leaves, routed: each rerun
  // saturates the EL axioms of its cone's ⊥-module, and the parity check
  // covers that module-local routing.
  results.push_back(runWorkload(
      "inc-routed", modules("ier", quick ? 4 : 6, quick ? 25 : 40,
                               quick ? 34 : 56, 33, 2),
      workers, txns, ElRouting::kAuto));

  std::printf("incremental bench — delta commit vs from-scratch%s\n",
              quick ? " [quick]" : "");
  std::printf("  %-10s %9s %10s %10s %9s %9s\n", "workload", "concepts",
              "delta p50", "full p50", "speedup", "cone p50");
  std::FILE* out = std::fopen("BENCH_incremental.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_incremental.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  writeBenchMeta(out);
  std::fprintf(out, "  \"bench\": \"incremental\",\n  \"quick\": %s,\n"
                    "  \"txns_per_workload\": %zu,\n  \"workloads\": [\n",
               quick ? "true" : "false", txns);
  for (std::size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& wr = results[w];
    std::vector<double> deltaMs, fullMs;
    std::vector<double> cones;
    for (const TxnSample& t : wr.txns) {
      deltaMs.push_back(t.deltaMs);
      fullMs.push_back(t.fullMs);
      cones.push_back(static_cast<double>(t.coneSize));
    }
    const double d50 = medianMs(deltaMs);
    const double f50 = medianMs(fullMs);
    const double speedup = d50 > 0.0 ? f50 / d50 : 0.0;
    const double cone50 = medianMs(cones);
    std::printf("  %-10s %9zu %8.2fms %8.2fms %8.1fx %9.0f\n",
                wr.name.c_str(), wr.concepts, d50, f50, speedup, cone50);
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"concepts\": %zu,\n"
                 "     \"base_classify_ms\": %.3f,\n"
                 "     \"delta_commit_p50_ms\": %.3f,\n"
                 "     \"full_reclassify_p50_ms\": %.3f,\n"
                 "     \"speedup_p50\": %.2f,\n"
                 "     \"cone_p50\": %.0f}%s\n",
                 wr.name.c_str(), wr.concepts, wr.baseMs, d50, f50, speedup,
                 cone50, w + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_incremental.json\n");
  return 0;
}
