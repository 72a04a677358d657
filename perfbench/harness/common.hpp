// Pieces shared by the classify and serve workloads: timing helpers, the
// seeded input sequence, and the per-classification layer analysis.
// Internal to the harness.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/parallel_classifier.hpp"
#include "gen/generator.hpp"
#include "harness/decorators.hpp"
#include "harness/trace.hpp"
#include "harness/workloads.hpp"

namespace perfbench::detail {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double median(const std::vector<double>& v);
double peakRssMb();
/// min(4, nproc): the classifier workers of every workload.
std::size_t classifierWorkers();

/// One workload-seeded input ontology plus its functional-syntax text.
struct Input {
  owlcl::GeneratedOntology gen;
  std::string text;
};

/// A workload's input ontologies, generated on demand from consecutive
/// seeds starting at a base derived from the workload seed (so different
/// workload seeds give disjoint sequences), passing over generator hangs.
class InputSequence {
 public:
  InputSequence(std::uint64_t workloadSeed,
                std::function<owlcl::GenConfig(std::uint64_t)> shape)
      : next_(workloadSeed * 100000 + 1), shape_(std::move(shape)) {}

  Input next();
  std::size_t skipped() const { return skipped_; }

 private:
  std::uint64_t next_;
  std::function<owlcl::GenConfig(std::uint64_t)> shape_;
  std::size_t skipped_ = 0;
};

using LayerMap = std::map<std::string, double>;

/// Per-metric medians over a list of per-item layer maps.
LayerMap medianLayers(const std::vector<LayerMap>& items);
/// Fills rep->perLayer and rep->perLayerLocal from `values`, in catalog
/// order; a metric `values` lacks (a layer the workload does not run)
/// reads 0.
void reportLayers(const LayerMap& values, std::size_t samples, Report* rep);
/// Σ duration of the spans called `name`, in seconds.
double sumDur(const std::vector<Span>& spans, const char* name);
/// The recorded spans of one request / classification.
std::vector<Span> spansOf(const Tracer& tracer, std::uint64_t req);

/// Layer metrics of one traced classification. `spans` are the
/// classification's spans (req-filtered); `root` is its core.classify
/// span id; `reads` the TracedExecutor's clock log.
LayerMap classifyLayers(std::vector<Span> spans, std::uint32_t root,
                        const owlcl::ClassificationResult& r,
                        const std::vector<TracedExecutor::ClockRead>& reads,
                        Tracer& tracer, std::size_t workers,
                        std::uint64_t steals);

Report runClassify(const Options& o, std::size_t concepts, bool el);
Report runServe(const Options& o, bool deltaWorkload);

}  // namespace perfbench::detail
