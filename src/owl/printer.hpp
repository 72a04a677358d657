// Serialisation of class expressions and TBoxes back to the OWL 2
// functional-style syntax fragment accepted by owl/parser.hpp, plus a
// compact DL-style rendering (⊓ ⊔ ¬ ∃ ∀ ≥ ≤) for logs and tests.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "owl/tbox.hpp"

namespace owlcl {

/// Renders an entity name so it re-parses to itself: bare when it
/// tokenises as a single name and is not claimed by a constructor
/// keyword, otherwise <IRI>-bracketed (full IRIs contain '/' and '#',
/// which the bare-name lexer rejects / treats as a comment).
std::string fsEntityName(const std::string& name);

/// Functional-syntax rendering of a single class expression.
std::string toFunctionalSyntax(const TBox& tbox, ExprId e);

/// Functional-syntax rendering of a single told axiom (no trailing
/// newline). This is the canonical statement form used by the delta
/// layer: two axioms are the same statement iff these strings match.
std::string toFunctionalSyntax(const TBox& tbox, const ToldAxiom& ax);

/// DL-style rendering, e.g. "(A ⊓ ∃r.B)".
std::string toDlSyntax(const TBox& tbox, ExprId e);

// The ontology's canonical *statement list*: one functional-syntax
// statement per line — Declaration(Class(...)) for every concept in id
// order, Declaration(ObjectProperty(...)) for every role in id order,
// then one canonical told-axiom rendering per asserted axiom in told
// order. Reparsing the list reproduces the exact same concept/role ids
// (declarations pin them), which is what makes deltas replayable
// (core/incremental.hpp): adds append at the end (new names get ids past
// the old count), retracts remove an axiom statement without ever
// shifting a declaration.

/// Canonical statement list of a TBox: a copy of the cached rendering
/// (TBox::canonicalStatements) when frozen, rendered afresh otherwise.
std::vector<std::string> statementsFromTBox(const TBox& tbox);

/// Renders the statement list afresh. TBox::canonicalStatements caches
/// this; other callers want statementsFromTBox.
std::vector<std::string> renderStatementList(const TBox& tbox);

/// Feeds `piece` the bytes of renderStatements(stmts), in order, as
/// string_views, without building the document.
template <typename Fn>
void forEachDocumentPiece(const std::vector<std::string>& stmts, Fn&& piece) {
  piece(std::string_view("Ontology(<http://owlcl/generated>\n"));
  for (const std::string& s : stmts) {
    piece(std::string_view("  "));
    piece(std::string_view(s));
    piece(std::string_view("\n"));
  }
  piece(std::string_view(")\n"));
}

/// Renders a statement list as a parseable functional-syntax document.
std::string renderStatements(const std::vector<std::string>& stmts);

/// Writes the whole TBox as a parseable functional-syntax document:
/// renderStatements over its statement list.
void writeFunctionalSyntax(const TBox& tbox, std::ostream& out);
std::string toFunctionalSyntaxDocument(const TBox& tbox);

}  // namespace owlcl
