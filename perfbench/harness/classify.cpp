// classify-el (and the classify-expressive reproducer): generated
// ontologies, one after another, each parsed, preprocessed, classified
// with `workers` and with 1 worker, and checked against the generator's
// ground truth.
#include <memory>

#include "core/real_executor.hpp"
#include "harness/common.hpp"
#include "owl/parser.hpp"
#include "owl/tbox.hpp"
#include "parallel/thread_pool.hpp"
#include "reasoner/tableau_reasoner.hpp"
#include "taxonomy/snapshot.hpp"

namespace perfbench::detail {
namespace {

struct ClassifyOutcome {
  double setupS = 0;
  double classifyS = 0;
  bool ok = false;
  LayerMap layers;  // traced runs only
};

/// parse → freeze + preprocess → classify → check, for one input.
ClassifyOutcome classifyOnce(const Input& in, owlcl::ThreadPool& pool,
                             Tracer* tracer, std::uint64_t req) {
  ClassifyOutcome out;
  const auto t0 = Clock::now();
  owlcl::TBox tbox;
  {
    ScopedSpan s(tracer, "owl.parse", req);
    owlcl::parseFunctionalSyntax(in.text, tbox);
  }
  std::unique_ptr<owlcl::TableauReasoner> reasoner;
  {
    ScopedSpan s(tracer, "reasoner.preprocess", req);
    reasoner = std::make_unique<owlcl::TableauReasoner>(tbox);  // freezes
  }
  out.setupS = secondsSince(t0);

  owlcl::ClassifierConfig config;
  config.routeEl = owlcl::ElRouting::kAuto;
  owlcl::RealExecutor exec(pool);
  std::unique_ptr<TracedPlugin> tplugin;
  std::unique_ptr<TracedExecutor> texec;
  owlcl::ReasonerPlugin* plugin = reasoner.get();
  owlcl::Executor* executor = &exec;
  if (tracer != nullptr) {
    tplugin = std::make_unique<TracedPlugin>(*reasoner, *tracer, req);
    texec = std::make_unique<TracedExecutor>(exec, *tracer, req);
    plugin = tplugin.get();
    executor = texec.get();
  }
  owlcl::ParallelClassifier classifier(tbox, *plugin, config);
  const std::uint64_t steals0 = pool.stealCount();
  owlcl::ClassificationResult r;
  std::uint32_t root = 0;
  {
    ScopedSpan s(tracer, "core.classify", req);
    root = s.id();
    const auto c0 = Clock::now();
    r = classifier.classify(*executor);
    out.classifyS = secondsSince(c0);
  }
  const std::uint64_t steals = pool.stealCount() - steals0;
  out.ok = r.complete() && taxonomyMismatches(r.taxonomy, tbox, in.gen) == 0;

  if (tracer != nullptr) {
    {
      ScopedSpan s(tracer, "taxonomy.snapshot_build", req);
      owlcl::TaxonomySnapshot::build(r.taxonomy, tbox, true, 0);
    }
    std::vector<Span> spans = spansOf(*tracer, req);
    out.layers = classifyLayers(spans, root, r, texec->clockReads(), *tracer,
                                pool.size(), steals);
    out.layers["taxonomy.snapshot_build_s"] =
        sumDur(spans, "taxonomy.snapshot_build");
    tracer->clear();
  }
  return out;
}

}  // namespace

Report runClassify(const Options& o, std::size_t concepts, bool el) {
  Report rep;
  InputSequence inputs(o.seed, [&](std::uint64_t s) {
    return el ? elShape(concepts, s) : expressiveShape(concepts, s);
  });
  const std::size_t workers = classifierWorkers();
  owlcl::ThreadPool poolN(workers);
  owlcl::ThreadPool pool1(1);
  Tracer tracer;

  // One fresh ontology after another until the time is up (at least
  // kMinOntologies, so the p90 tail has ten samples beyond it). Each is
  // classified twice: with `workers` and with 1 worker (untraced run), or
  // untraced and traced with `workers` (traced run); the order alternates
  // so neither side always runs second.
  constexpr std::size_t kMinOntologies = 100;
  std::vector<double> setup, multi, single, traced;
  std::vector<LayerMap> layers;
  std::uint64_t req = 0;
  std::size_t count = 0;
  const auto t0 = Clock::now();
  while (count < kMinOntologies || secondsSince(t0) < o.seconds) {
    const Input input = inputs.next();
    for (int k = 0; k < 2; ++k) {
      const bool first = (k == 0) == (count % 2 == 0);
      ClassifyOutcome c;
      if (!o.trace) {
        c = classifyOnce(input, first ? poolN : pool1, nullptr, ++req);
        (first ? multi : single).push_back(c.classifyS);
      } else {
        c = classifyOnce(input, poolN, first ? &tracer : nullptr, ++req);
        (first ? traced : multi).push_back(c.classifyS);
        if (first) layers.push_back(c.layers);
      }
      setup.push_back(c.setupS);
      ++rep.attempted;
      rep.failed += c.ok ? 0 : 1;
    }
    ++count;
  }
  const double measured = secondsSince(t0);

  const std::size_t n = multi.size();
  rep.notes.push_back(std::to_string(count) + " ontologies of ~" +
                      std::to_string(concepts) + " concepts in " +
                      std::to_string(measured) + " s, " +
                      std::to_string(workers) + " workers; tail = p90; " +
                      std::to_string(inputs.skipped()) +
                      " seeds passed over (generator hang)");
  if (!o.trace) {
    rep.endToEnd = {
        {"setup_s", median(setup), "s", setup.size()},
        {"op_p50_ms", median(multi) * 1e3, "ms", n},
        {"alt_p50_ms", median(single) * 1e3, "ms", single.size()},
    };
    rep.display = {
        {"setup_s", median(setup), "s", setup.size()},
        {"classify_s", median(multi), "s", n},
        {"classify_tail_s", quantile(multi, 0.9), "s", n},
        {"classify_1w_s", median(single), "s", single.size()},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
    };
  } else {
    LayerMap lm = medianLayers(layers);
    lm["trace.overhead_pct"] = (median(traced) / median(multi) - 1) * 100;
    reportLayers(lm, layers.size(), &rep);
    rep.display = {
        {"classify_s (untraced)", median(multi), "s", multi.size()},
        {"classify_s (traced)", median(traced), "s", traced.size()},
        {"trace.overhead_pct", lm["trace.overhead_pct"], "%", traced.size()},
        {"core.unattributed_ratio", lm["core.unattributed_ratio"], "ratio",
         layers.size()},
    };
  }
  return rep;
}

}  // namespace perfbench::detail
