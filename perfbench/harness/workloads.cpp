#include "harness/workloads.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "harness/common.hpp"
#include "owl/tbox.hpp"
#include "util/bitset.hpp"

namespace perfbench {

using owlcl::ConceptId;

owlcl::GenConfig elShape(std::size_t concepts, std::uint64_t seed) {
  // bench_ablation_routing's EL-heavy corpus: an ∃-decorated DAG backbone
  // with equivalences, disjointness and injected unsatisfiable concepts
  // (all EL⁺⊥) plus a thin ∀ residual on leaves. Edge and ∃ counts scale
  // with the concept count from its 280-concept calibration.
  owlcl::GenConfig cfg;
  cfg.name = "perf-el";
  cfg.concepts = concepts;
  cfg.subClassEdges = concepts * 370 / 280;
  cfg.roles = 6;
  // ∃ density 60 per 280 concepts instead of the ablation's 150: at 150
  // the ∀ leaves are ∃ fillers on about half the seeds, their ⊥-modules
  // then taint most concepts, and routing covers as few as 44 of 280.
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

owlcl::GenConfig expressiveShape(std::size_t concepts, std::uint64_t seed) {
  // bench_ablation_cache's corpus: ∃/∀ decorations over a role hierarchy
  // with a transitive role, calibrated at 180 concepts.
  owlcl::GenConfig cfg;
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

std::size_t taxonomyMismatches(const owlcl::Taxonomy& tax,
                               const owlcl::TBox& parsed,
                               const owlcl::GeneratedOntology& truth) {
  const owlcl::TBox& gt = *truth.tbox;
  const std::size_t n = gt.conceptCount();
  if (parsed.conceptCount() != n || tax.conceptCount() != n) return n;
  // Generator id → node in `tax`.
  std::vector<owlcl::Taxonomy::NodeId> node(n);
  for (ConceptId c = 0; c < n; ++c) {
    const ConceptId p = parsed.findConcept(gt.conceptName(c));
    if (p == owlcl::kInvalidConcept) return n;
    node[c] = tax.nodeOf(p);
    if (node[c] == owlcl::Taxonomy::kNoNode) return n;
  }
  // Ancestor-or-self node sets, by memoized DFS up the parent links.
  const std::size_t nodes = tax.nodeCount();
  std::vector<owlcl::DynamicBitset> anc(nodes);
  std::vector<char> done(nodes, 0);
  std::function<void(owlcl::Taxonomy::NodeId)> visit =
      [&](owlcl::Taxonomy::NodeId v) {
        if (done[v]) return;
        done[v] = 1;
        anc[v] = owlcl::DynamicBitset(nodes);
        anc[v].set(v);
        for (const auto p : tax.node(v).parents) {
          visit(p);
          anc[v] |= anc[p];
        }
      };
  for (owlcl::Taxonomy::NodeId v = 0; v < nodes; ++v) visit(v);

  std::size_t bad = 0;
  for (ConceptId sub = 0; sub < n; ++sub)
    for (ConceptId sup = 0; sup < n; ++sup) {
      const bool got = node[sub] == owlcl::Taxonomy::kBottomNode ||
                       anc[node[sub]].test(node[sup]);
      bad += got != truth.truth.subsumes(sup, sub);
    }
  return bad;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> k = {
      "classify-el", "classify-expressive", "serve-read", "serve-delta"};
  return k;
}

Report runWorkload(const Options& o) {
  if (o.workload == "classify-el") return detail::runClassify(o, 280, true);
  if (o.workload == "classify-expressive")
    return detail::runClassify(o, 180, false);
  if (o.workload == "serve-read") return detail::runServe(o, false);
  if (o.workload == "serve-delta") return detail::runServe(o, true);
  throw std::runtime_error("unknown workload: " + o.workload);
}

}  // namespace perfbench
