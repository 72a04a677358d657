// Taxonomy — the classification output: a DAG of equivalence classes of
// named concepts between the synthetic ⊤ (root) and ⊥ (bottom) nodes,
// with edges being *direct* subsumptions (transitive reduction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "owl/ids.hpp"
#include "owl/tbox.hpp"
#include "util/bitset.hpp"

namespace owlcl {

class Taxonomy {
 public:
  using NodeId = std::uint32_t;
  static constexpr NodeId kTopNode = 0;
  static constexpr NodeId kBottomNode = 1;
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  struct Node {
    std::vector<ConceptId> members;  // the equivalence class (sorted)
    std::vector<NodeId> parents;     // direct subsumers
    std::vector<NodeId> children;    // direct subsumees
  };

  /// Creates a taxonomy with only ⊤ and ⊥ over `conceptCount` concepts.
  explicit Taxonomy(std::size_t conceptCount);

  /// Adds an equivalence-class node. Members must be distinct and not yet
  /// assigned to any node.
  NodeId addNode(std::vector<ConceptId> members);

  /// Adds a direct subsumption edge parent → child (idempotent).
  void addEdge(NodeId parent, NodeId child);

  /// Assigns a concept to the ⊥ node (unsatisfiable concepts).
  void assignToBottom(ConceptId c);

  /// Links parentless nodes under ⊤ and childless nodes over ⊥, sorts all
  /// adjacency lists. Call once after all nodes/edges are added.
  void finalize();

  // --- queries ---------------------------------------------------------------
  std::size_t nodeCount() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }
  NodeId nodeOf(ConceptId c) const { return nodeOf_[c]; }
  std::size_t conceptCount() const { return nodeOf_.size(); }

  /// Is `sup` an ancestor-or-self of `sub` in the DAG? (⊤ of everything;
  /// everything of ⊥.) This is entailed subsumption: sub ⊑ sup.
  bool subsumes(ConceptId sup, ConceptId sub) const;

  bool equivalent(ConceptId a, ConceptId b) const {
    return nodeOf_[a] == nodeOf_[b] && nodeOf_[a] != kNoNode;
  }

  /// Concepts in the same class as c (including c).
  const std::vector<ConceptId>& equivalents(ConceptId c) const {
    return nodes_[nodeOf_[c]].members;
  }

  /// Number of direct edges (excluding synthetic ⊤/⊥ links when
  /// `countSynthetic` is false).
  std::size_t edgeCount(bool countSynthetic = false) const;

  /// Depth of the deepest node below ⊤ (⊥ excluded).
  std::size_t depth() const;

  // --- rendering --------------------------------------------------------------
  /// Indented tree rendering (DAG nodes with several parents repeat).
  void print(std::ostream& out, const TBox& tbox, std::size_t maxDepth = 50) const;
  /// GraphViz DOT rendering.
  void writeDot(std::ostream& out, const TBox& tbox) const;

 private:
  bool reachableDown(NodeId from, NodeId to) const;

  std::vector<Node> nodes_;
  std::vector<NodeId> nodeOf_;
  bool finalized_ = false;
};

/// The equivalence classes of mutual subsumption (Algorithm 4's
/// setEquivalentConcept) and their taxonomy nodes: the start every
/// taxonomy builder shares before its own edge reduction.
struct EquivalenceClasses {
  /// One node per class, every unsatisfiable concept at ⊥, no edges yet.
  Taxonomy taxonomy{0};
  /// rep[x]: the least concept of x's class.
  std::vector<ConceptId> rep;
  /// members[r]: the class represented by r, ascending; empty otherwise.
  std::vector<std::vector<ConceptId>> members;
  /// nodeOfRep[r]: r's node; Taxonomy::kNoNode if r represents no class.
  std::vector<Taxonomy::NodeId> nodeOfRep;
};

/// below[x] has bit y ⟺ y ⊑ x is known. Concepts with sat[x] false join
/// no class and go to ⊥.
EquivalenceClasses equivalenceClasses(const std::vector<DynamicBitset>& below,
                                      const std::vector<bool>& sat);

}  // namespace owlcl
