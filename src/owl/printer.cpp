#include "owl/printer.hpp"

#include <ostream>

#include "util/strings.hpp"

namespace owlcl {

namespace {

// Bare names the class-expression grammar claims for itself — an entity
// literally named one of these must be <>-bracketed to stay an atom.
bool isGrammarKeyword(const std::string& name) {
  if (name.empty() || (name[0] != 'o' && name[0] != 'O')) return false;
  return name == "owl:Thing" || name == "owl:Nothing" ||
         name == "ObjectIntersectionOf" || name == "ObjectUnionOf" ||
         name == "ObjectComplementOf" || name == "ObjectSomeValuesFrom" ||
         name == "ObjectAllValuesFrom" || name == "ObjectMinCardinality" ||
         name == "ObjectMaxCardinality" || name == "ObjectExactCardinality";
}

// Mirrors the lexer in owl/parser.cpp: alnum / '_' / '-' / '.' plus ':'
// joined inside prefixed names (but ":=" splits).
bool bareNameSafe(const std::string& name) {
  if (name.empty()) return false;
  const unsigned char first = static_cast<unsigned char>(name[0]);
  if (std::isdigit(first)) return false;  // would tokenise as an integer
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
        c == '.')
      continue;
    if (c == ':' && !(i + 1 < name.size() && name[i + 1] == '='))
      continue;
    return false;
  }
  return !isGrammarKeyword(name);
}

/// Appends fsEntityName(name) without a temporary.
void appendEntityName(const std::string& name, std::string& out) {
  if (bareNameSafe(name)) {
    out += name;
    return;
  }
  out += '<';
  out += name;
  out += '>';
}

void renderFs(const TBox& tbox, ExprId e, std::string& out) {
  const ExprFactory& f = tbox.exprs();
  const ExprNode& n = f.node(e);
  switch (n.kind) {
    case ExprKind::kTop:
      out += "owl:Thing";
      return;
    case ExprKind::kBottom:
      out += "owl:Nothing";
      return;
    case ExprKind::kAtom:
      appendEntityName(tbox.conceptName(n.atom), out);
      return;
    case ExprKind::kNot:
      out += "ObjectComplementOf(";
      renderFs(tbox, f.children(e)[0], out);
      out += ")";
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      out += n.kind == ExprKind::kAnd ? "ObjectIntersectionOf(" : "ObjectUnionOf(";
      bool first = true;
      for (ExprId c : f.children(e)) {
        if (!first) out += " ";
        first = false;
        renderFs(tbox, c, out);
      }
      out += ")";
      return;
    }
    case ExprKind::kExists:
    case ExprKind::kForall:
      out += n.kind == ExprKind::kExists ? "ObjectSomeValuesFrom("
                                         : "ObjectAllValuesFrom(";
      appendEntityName(tbox.roles().name(n.role), out);
      out += " ";
      renderFs(tbox, f.children(e)[0], out);
      out += ")";
      return;
    case ExprKind::kAtLeast:
    case ExprKind::kAtMost:
      out += n.kind == ExprKind::kAtLeast ? "ObjectMinCardinality("
                                          : "ObjectMaxCardinality(";
      out += std::to_string(n.number);
      out += " ";
      appendEntityName(tbox.roles().name(n.role), out);
      out += " ";
      renderFs(tbox, f.children(e)[0], out);
      out += ")";
      return;
  }
}

void renderDl(const TBox& tbox, ExprId e, std::string& out) {
  const ExprFactory& f = tbox.exprs();
  const ExprNode& n = f.node(e);
  switch (n.kind) {
    case ExprKind::kTop:
      out += "⊤";
      return;
    case ExprKind::kBottom:
      out += "⊥";
      return;
    case ExprKind::kAtom:
      out += tbox.conceptName(n.atom);
      return;
    case ExprKind::kNot:
      out += "¬";
      renderDl(tbox, f.children(e)[0], out);
      return;
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      out += "(";
      bool first = true;
      for (ExprId c : f.children(e)) {
        if (!first) out += n.kind == ExprKind::kAnd ? " ⊓ " : " ⊔ ";
        first = false;
        renderDl(tbox, c, out);
      }
      out += ")";
      return;
    }
    case ExprKind::kExists:
    case ExprKind::kForall:
      out += n.kind == ExprKind::kExists ? "∃" : "∀";
      out += tbox.roles().name(n.role);
      out += ".";
      renderDl(tbox, f.children(e)[0], out);
      return;
    case ExprKind::kAtLeast:
    case ExprKind::kAtMost:
      out += n.kind == ExprKind::kAtLeast ? "≥" : "≤";
      out += std::to_string(n.number);
      out += " ";
      out += tbox.roles().name(n.role);
      out += ".";
      renderDl(tbox, f.children(e)[0], out);
      return;
  }
}

}  // namespace

std::string fsEntityName(const std::string& name) {
  if (bareNameSafe(name)) return name;
  return "<" + name + ">";
}

std::string toFunctionalSyntax(const TBox& tbox, ExprId e) {
  std::string s;
  renderFs(tbox, e, s);
  return s;
}

std::string toDlSyntax(const TBox& tbox, ExprId e) {
  std::string s;
  renderDl(tbox, e, s);
  return s;
}

std::string toFunctionalSyntax(const TBox& tbox, const ToldAxiom& ax) {
  std::string out;
  switch (ax.kind) {
    case AxiomKind::kSubClassOf:
      out += "SubClassOf(";
      renderFs(tbox, ax.classArgs[0], out);
      out += " ";
      renderFs(tbox, ax.classArgs[1], out);
      out += ")";
      break;
    case AxiomKind::kEquivalentClasses:
    case AxiomKind::kDisjointClasses: {
      out += ax.kind == AxiomKind::kEquivalentClasses ? "EquivalentClasses("
                                                      : "DisjointClasses(";
      bool first = true;
      for (ExprId c : ax.classArgs) {
        if (!first) out += " ";
        first = false;
        renderFs(tbox, c, out);
      }
      out += ")";
      break;
    }
    case AxiomKind::kSubObjectPropertyOf:
      out += "SubObjectPropertyOf(";
      appendEntityName(tbox.roles().name(ax.role1), out);
      out += " ";
      appendEntityName(tbox.roles().name(ax.role2), out);
      out += ")";
      break;
    case AxiomKind::kTransitiveObjectProperty:
      out += "TransitiveObjectProperty(";
      appendEntityName(tbox.roles().name(ax.role1), out);
      out += ")";
      break;
    case AxiomKind::kAnnotation:
      out += "AnnotationAssertion(rdfs:comment ";
      renderFs(tbox, ax.classArgs[0], out);
      out += " \"";
      out += ax.text;
      out += "\")";
      break;
  }
  return out;
}

std::vector<std::string> renderStatementList(const TBox& tbox) {
  std::vector<std::string> stmts;
  stmts.reserve(tbox.conceptCount() + tbox.roles().size() +
                tbox.toldAxioms().size());
  const auto declaration = [&stmts](const char* head, const std::string& name) {
    std::string& s = stmts.emplace_back(head);
    appendEntityName(name, s);
    s += "))";
  };
  for (ConceptId c = 0; c < tbox.conceptCount(); ++c)
    declaration("Declaration(Class(", tbox.conceptName(c));
  for (RoleId r = 0; r < tbox.roles().size(); ++r)
    declaration("Declaration(ObjectProperty(", tbox.roles().name(r));
  for (const ToldAxiom& ax : tbox.toldAxioms())
    stmts.push_back(toFunctionalSyntax(tbox, ax));
  return stmts;
}

std::vector<std::string> statementsFromTBox(const TBox& tbox) {
  return tbox.frozen() ? tbox.canonicalStatements()
                       : renderStatementList(tbox);
}

std::string renderStatements(const std::vector<std::string>& stmts) {
  std::size_t size = 0;
  forEachDocumentPiece(stmts, [&size](std::string_view p) { size += p.size(); });
  std::string doc;
  doc.reserve(size);
  forEachDocumentPiece(stmts, [&doc](std::string_view p) { doc += p; });
  return doc;
}

void writeFunctionalSyntax(const TBox& tbox, std::ostream& out) {
  out << toFunctionalSyntaxDocument(tbox);
}

std::string toFunctionalSyntaxDocument(const TBox& tbox) {
  if (tbox.frozen()) return renderStatements(tbox.canonicalStatements());
  return renderStatements(renderStatementList(tbox));
}

}  // namespace owlcl
