//===- Simplify.h - Term simplification and rewrite rules ------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-extensible simplification mechanism of Section 5: a core
/// bottom-up simplifier (constant folding, algebraic identities, list/set
/// normalization) plus registered rewrite rules. It is used both to simplify
/// side-condition goals (possibly introducing evars via goal transforms) and
/// to normalize hypotheses added to the context (e.g. `xs ++ ys = []` is
/// expanded to `xs = []` and `ys = []`).
///
//===----------------------------------------------------------------------===//

#ifndef RCC_PURE_SIMPLIFY_H
#define RCC_PURE_SIMPLIFY_H

#include "pure/Term.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace rcc::pure {

/// A rewrite rule: returns the rewritten term, or nullptr when it does not
/// apply. Rules registered as equivalences preserve provability; rules
/// registered as implications may lose it (the paper's "escape hatch").
struct RewriteRule {
  std::string Name;
  bool IsEquivalence = true;
  std::function<TermRef(TermRef)> Apply;
};

class Simplifier {
public:
  Simplifier();

  /// Simplifies bottom-up to a local fixpoint, then applies registered rules.
  TermRef simplify(TermRef T) const;

  /// Expands a hypothesis into zero or more simpler facts (a no-op expansion
  /// returns the singleton {H}). Conjunctions are split; derived equalities
  /// such as `xs ++ ys = [] -> xs = [] /\ ys = []` are applied.
  std::vector<TermRef> expandHyp(TermRef H) const;

  void addRule(RewriteRule R);
  const std::vector<RewriteRule> &rules() const { return Rules; }

  /// Names the rule list: construction and every addRule draw a fresh
  /// process-wide value, and copies keep their source's. Equal versions
  /// mean equal rule lists, so a cache of simplification results stays
  /// valid exactly as long as the version it was filled under.
  uint64_t version() const { return Version; }

private:
  TermRef simplifyNode(TermRef T) const;
  std::vector<RewriteRule> Rules;
  uint64_t Version;
};

} // namespace rcc::pure

#endif // RCC_PURE_SIMPLIFY_H
