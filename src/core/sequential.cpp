#include "core/sequential.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/bitset.hpp"

namespace owlcl {

namespace {

/// Shared tail: build a Taxonomy from a full subsumption bitmatrix
/// (subs[x] has bit y ⟺ y ⊑ x) over the satisfiable concepts.
Taxonomy taxonomyFromMatrix(std::size_t n, const std::vector<DynamicBitset>& subs,
                            const std::vector<bool>& sat) {
  EquivalenceClasses eq = equivalenceClasses(subs, sat);
  auto& [tax, rep, members, nodeOfRep] = eq;

  // Direct edges via transitive reduction of the strict relation.
  for (ConceptId r = 0; r < n; ++r) {
    if (nodeOfRep[r] == Taxonomy::kNoNode) continue;
    DynamicBitset strictBelow = subs[r];
    for (ConceptId m : members[r]) strictBelow.reset(m);
    DynamicBitset direct = strictBelow;
    for (std::size_t y : strictBelow.setBits()) {
      if (!sat[y]) {
        direct.reset(y);
        continue;
      }
      if (rep[y] != static_cast<ConceptId>(y)) continue;  // handled via rep
      DynamicBitset lower = subs[y];
      for (ConceptId m : members[rep[y]]) lower.reset(m);
      direct -= lower;
    }
    for (std::size_t y : direct.setBits()) {
      const Taxonomy::NodeId child = nodeOfRep[rep[y]];
      if (child != Taxonomy::kNoNode && child != nodeOfRep[r])
        tax.addEdge(nodeOfRep[r], child);
    }
  }
  tax.finalize();
  return std::move(tax);
}

}  // namespace

SequentialResult BruteForceClassifier::classify() {
  const std::size_t n = tbox_.conceptCount();
  SequentialResult res;

  std::vector<bool> sat(n, false);
  for (ConceptId c = 0; c < n; ++c) {
    std::uint64_t ns = 0;
    sat[c] = plugin_.isSatisfiable(c, &ns);
    res.totalCostNs += ns;
    ++res.satTests;
  }

  std::vector<DynamicBitset> subs(n, DynamicBitset(n));
  for (ConceptId x = 0; x < n; ++x) {
    if (!sat[x]) continue;
    for (ConceptId y = 0; y < n; ++y) {
      if (x == y || !sat[y]) continue;
      std::uint64_t ns = 0;
      if (plugin_.isSubsumedBy(y, x, &ns)) subs[x].set(y);
      res.totalCostNs += ns;
      ++res.subsumptionTests;
    }
  }
  res.taxonomy = taxonomyFromMatrix(n, subs, sat);
  return res;
}

SequentialResult EnhancedTraversalClassifier::classify() {
  const std::size_t n = tbox_.conceptCount();
  SequentialResult res;

  // Incremental DAG over class representatives; reps[v] is the concept
  // whose subsumption tests stand for the whole class.
  struct DynNode {
    ConceptId repConcept;
    std::vector<ConceptId> members;
    std::vector<std::size_t> parents, children;
  };
  constexpr std::size_t kTop = 0, kBot = 1;
  std::vector<DynNode> nodes(2);
  std::vector<bool> satVec(n, false);
  std::vector<bool> placedAtBottom(n, false);

  // subs?(a ⊒ c): is c subsumed by the concept of node v?
  auto subsumesNode = [&](const DynNode& v, ConceptId c) {
    std::uint64_t ns = 0;
    const bool r = plugin_.isSubsumedBy(c, v.repConcept, &ns);
    res.totalCostNs += ns;
    ++res.subsumptionTests;
    return r;
  };
  auto nodeSubsumedBy = [&](const DynNode& v, ConceptId c) {
    std::uint64_t ns = 0;
    const bool r = plugin_.isSubsumedBy(v.repConcept, c, &ns);
    res.totalCostNs += ns;
    ++res.subsumptionTests;
    return r;
  };

  for (ConceptId c = 0; c < n; ++c) {
    std::uint64_t ns = 0;
    satVec[c] = plugin_.isSatisfiable(c, &ns);
    res.totalCostNs += ns;
    ++res.satTests;
    if (!satVec[c]) {
      placedAtBottom[c] = true;
      continue;
    }

    // Top search: BFS down from ⊤; a node is a parent candidate when it
    // subsumes c but none of its children does. Memoise per-node verdicts.
    std::unordered_map<std::size_t, bool> subsMemo;
    auto subsumesC = [&](std::size_t v) {
      if (v == kTop) return true;
      if (v == kBot) return false;
      auto it = subsMemo.find(v);
      if (it != subsMemo.end()) return it->second;
      const bool r = subsumesNode(nodes[v], c);
      subsMemo.emplace(v, r);
      return r;
    };
    std::vector<std::size_t> parents;
    {
      std::vector<std::size_t> stack{kTop};
      std::vector<bool> visited(nodes.size(), false);
      visited[kTop] = true;
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        bool childTook = false;
        for (std::size_t ch : nodes[v].children) {
          if (ch == kBot) continue;
          if (subsumesC(ch)) {
            childTook = true;
            if (!visited[ch]) {
              visited[ch] = true;
              stack.push_back(ch);
            }
          }
        }
        if (!childTook) parents.push_back(v);
      }
      std::sort(parents.begin(), parents.end());
      parents.erase(std::unique(parents.begin(), parents.end()), parents.end());
    }

    // Equivalence: a parent that is also subsumed by c is c's class.
    std::size_t equivNode = static_cast<std::size_t>(-1);
    for (std::size_t p : parents) {
      if (p == kTop) continue;
      if (nodeSubsumedBy(nodes[p], c)) {
        equivNode = p;
        break;
      }
    }
    if (equivNode != static_cast<std::size_t>(-1)) {
      nodes[equivNode].members.push_back(c);
      continue;
    }

    // Bottom search: BFS up from ⊥; a node is a child candidate when c
    // subsumes it but none of its parents is subsumed by c. Only nodes
    // below *all* found parents can qualify, so the search space is first
    // narrowed by a reasoner-free graph walk (the enhanced-traversal
    // optimisation that makes insertion cheap on bushy taxonomies).
    std::vector<bool> belowParents(nodes.size(), true);
    for (std::size_t p : parents) {
      if (p == kTop) continue;  // everything is below ⊤
      std::vector<bool> belowP(nodes.size(), false);
      std::vector<std::size_t> stack{p};
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        for (std::size_t ch : nodes[v].children) {
          if (!belowP[ch]) {
            belowP[ch] = true;
            stack.push_back(ch);
          }
        }
      }
      belowP[kBot] = true;
      for (std::size_t v = 0; v < nodes.size(); ++v)
        belowParents[v] = belowParents[v] && belowP[v];
    }
    std::unordered_map<std::size_t, bool> underMemo;
    auto underC = [&](std::size_t v) {
      if (v == kBot) return true;
      if (v == kTop) return false;
      if (!belowParents[v]) return false;  // cannot be under c: free reject
      auto it = underMemo.find(v);
      if (it != underMemo.end()) return it->second;
      const bool r = nodeSubsumedBy(nodes[v], c);
      underMemo.emplace(v, r);
      return r;
    };
    std::vector<std::size_t> children;
    {
      std::vector<std::size_t> stack{kBot};
      std::vector<bool> visited(nodes.size(), false);
      visited[kBot] = true;
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        bool parentTook = false;
        for (std::size_t pa : nodes[v].parents) {
          if (pa == kTop) continue;
          if (underC(pa)) {
            parentTook = true;
            if (!visited[pa]) {
              visited[pa] = true;
              stack.push_back(pa);
            }
          }
        }
        if (!parentTook) children.push_back(v);
      }
      std::sort(children.begin(), children.end());
      children.erase(std::unique(children.begin(), children.end()),
                     children.end());
    }

    // Splice the new node in: drop parent→child edges made indirect.
    const std::size_t vNew = nodes.size();
    nodes.push_back(DynNode{c, {c}, {}, {}});
    auto eraseEdge = [&](std::size_t pa, std::size_t ch) {
      auto& cs = nodes[pa].children;
      cs.erase(std::remove(cs.begin(), cs.end(), ch), cs.end());
      auto& ps = nodes[ch].parents;
      ps.erase(std::remove(ps.begin(), ps.end(), pa), ps.end());
    };
    auto addEdge = [&](std::size_t pa, std::size_t ch) {
      nodes[pa].children.push_back(ch);
      nodes[ch].parents.push_back(pa);
    };
    for (std::size_t p : parents)
      for (std::size_t ch : children) eraseEdge(p, ch);
    for (std::size_t p : parents) addEdge(p, vNew);
    for (std::size_t ch : children) addEdge(vNew, ch);
  }

  // Emit the final immutable taxonomy.
  Taxonomy tax(n);
  std::vector<Taxonomy::NodeId> emitted(nodes.size(), Taxonomy::kNoNode);
  for (std::size_t v = 2; v < nodes.size(); ++v)
    emitted[v] = tax.addNode(nodes[v].members);
  for (ConceptId c = 0; c < n; ++c)
    if (placedAtBottom[c]) tax.assignToBottom(c);
  for (std::size_t v = 2; v < nodes.size(); ++v)
    for (std::size_t ch : nodes[v].children)
      if (ch != kBot && emitted[ch] != Taxonomy::kNoNode)
        tax.addEdge(emitted[v], emitted[ch]);
  tax.finalize();
  res.taxonomy = std::move(tax);
  return res;
}

}  // namespace owlcl
