// ⊥-module reachability over told axioms (DESIGN.md §13, §14).
//
// Two fixpoints over one per-axiom trigger/signature relation:
//
//  * reachingSymbols(), backward: which symbols' modules may contain a
//    seed axiom.
//    - EL purity (owl/el_fragment.hpp): the seeds are the non-EL axioms; a
//      concept is pure iff its ⊥-module reaches none of them.
//    - The delta cone (core/incremental.hpp): the seeds are the changed
//      axioms; a concept is in the cone iff its ⊥-module over old ∪ new
//      reaches one of them.
//  * moduleOf(), forward: the axioms and signature of the ⊥-module of a
//    concept set — the delta rerun saturates only the EL axioms of the
//    cone's module and settles cone columns outside its signature
//    (DESIGN.md §14).
//
// A concept's subsumers and satisfiability are decided by its syntactic
// ⊥-locality module, so "the module reaches a seed axiom" is exactly the
// question both callers ask. The fixpoint answers it for every symbol at
// once, in time linear in the total size of the axioms, through a
// per-axiom trigger/signature relation: an axiom fires into a module when
// its trigger meets the module signature, and firing imports its whole
// signature. Triggers are small sound over-approximations, so the answer
// over-approximates ⊥-locality module reachability; it is additive over
// seed signatures.
#pragma once

#include <cstdint>
#include <vector>

#include "owl/ids.hpp"
#include "owl/tbox.hpp"
#include "util/bitset.hpp"

namespace owlcl {

/// Symbols are concept ids, then role ids offset by the concept count,
/// then one pseudo-symbol always() meaning "cannot be guaranteed to
/// ⊥-vanish": an axiom whose trigger holds `always` lies in every
/// ⊥-module.
class BotModuleReach {
 public:
  BotModuleReach(std::size_t concepts, std::size_t roles);

  /// Adds one told axiom of `tbox`; its concept and role ids must lie in
  /// this symbol space (a TBox whose ids extend another's may contribute
  /// axioms of both). A seed axiom's trigger starts the fixpoint.
  /// Annotations are inert: empty trigger and signature.
  void addAxiom(const TBox& tbox, const ToldAxiom& ax, bool seed);

  /// Every symbol s whose ⊥-module mod_⊥({s}) may contain a seed axiom.
  /// always() is among them iff the always-module (the axioms present in
  /// every ⊥-module) reaches a seed — then every module does.
  DynamicBitset reachingSymbols() const;

  /// The ⊥-module of a concept set Σ: the closure of {Σ, always} under
  /// firing. Every axiom outside it has a trigger disjoint from its
  /// signature, so it is ⊥-local there: any model of the module, with the
  /// symbols outside that signature made empty, is a model of all axioms
  /// added.
  struct Module {
    std::vector<std::uint8_t> axioms;  // per added axiom, in addAxiom order
    DynamicBitset signature;           // symbols, always() included
  };
  Module moduleOf(const std::vector<ConceptId>& concepts) const;

  std::uint32_t always() const { return always_; }

 private:
  /// Flat per-axiom symbol lists: axiom i owns [start[i], start[i + 1]).
  struct SymbolLists {
    std::vector<std::uint32_t> syms;
    std::vector<std::uint32_t> start{0};
    const std::uint32_t* begin(std::size_t i) const {
      return syms.data() + start[i];
    }
    const std::uint32_t* end(std::size_t i) const {
      return syms.data() + start[i + 1];
    }
  };
  /// Inverts `lists`: symbol s → the axioms whose list holds s.
  SymbolLists axiomsBySymbol(const SymbolLists& lists) const;

  std::size_t concepts_;
  std::uint32_t always_;  // == concepts + roles
  SymbolLists trig_;
  SymbolLists sig_;
  std::vector<std::uint8_t> seed_;
};

}  // namespace owlcl
