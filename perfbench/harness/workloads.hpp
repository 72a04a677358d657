// The benchmark's four workloads and the metrics they report.
//
// Every workload runs the library defaults plus routeEl = kAuto, on at
// most min(4, nproc) classifier workers; the generated input decides
// which layers do the work. See perfbench/README.md for why each
// workload exists and what each metric should move.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "taxonomy/taxonomy.hpp"

namespace owlcl {
class TBox;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the serve-delta journal directory is created and removed.
  std::string workDir = ".bench_build/perfbench-work";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  /// Gated metrics (BENCHMARK.json end_to_end), same names on every
  /// workload. Empty on a traced run.
  std::vector<Metric> endToEnd;
  /// The workload's metrics under their own names (classify_s, qps, ...),
  /// with sample counts, for the human-readable table.
  std::vector<Metric> display;
  /// Traced run only: BENCHMARK.json per_layer, the same names on every
  /// workload.
  std::vector<Metric> perLayer;
  /// Traced run only: metrics of layers only some workloads run (serve,
  /// delta, robust). Printed, not in the JSON line; 0 where not run.
  std::vector<Metric> perLayerLocal;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Names accepted by runWorkload().
const std::vector<std::string>& workloadNames();

/// Runs one workload. Throws std::runtime_error on a set-up failure.
Report runWorkload(const Options& options);

// --- pieces shared with the benchmark's tests ---------------------------------

/// classify-el input shape (bench_ablation_routing, scaled to `concepts`).
owlcl::GenConfig elShape(std::size_t concepts, std::uint64_t seed);
/// classify-expressive input shape (bench_ablation_cache, ~180 concepts).
owlcl::GenConfig expressiveShape(std::size_t concepts, std::uint64_t seed);

/// Ordered concept pairs on which `tax` (over `parsed`) and the
/// generator's ground truth disagree, matched by concept name; a concept
/// missing from either side counts as one mismatch per generator concept.
std::size_t taxonomyMismatches(const owlcl::Taxonomy& tax,
                               const owlcl::TBox& parsed,
                               const owlcl::GeneratedOntology& truth);

/// Linear-interpolated quantile q ∈ [0,1] of `v` (copied, then sorted).
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
