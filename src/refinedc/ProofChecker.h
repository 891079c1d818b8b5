//===- ProofChecker.h - Independent derivation re-checking -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The foundational substitute described in DESIGN.md: the search engine is
/// untrusted; every successful verification yields a Derivation, and this
/// module replays it independently. It checks that (a) every applied rule
/// exists in the registry or is a lithium::BuiltinStep, (b) every pure side
/// condition carries a proposition that re-proves from the hypotheses
/// recorded at that step, and (c) the derivation is structurally
/// well-formed. Each `check` builds one fresh solver for the whole
/// derivation: it runs the same solver code as the search, but shares no
/// state with the search's solver, and its normalization memo lives and
/// dies with that one call. This mirrors the paper's
/// argument that "the Lithium interpreter need not be trusted since it
/// generates proofs" (Section 3) — here the proof object is the derivation
/// and the checker is the smaller trusted component.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_PROOFCHECKER_H
#define RCC_REFINEDC_PROOFCHECKER_H

#include "lithium/Engine.h"

namespace rcc::refinedc {

struct ProofCheckResult {
  bool Ok = false;
  std::string Error;
  unsigned RuleSteps = 0;
  unsigned SideConds = 0;
};

class ProofChecker {
public:
  explicit ProofChecker(const lithium::RuleRegistry &Rules) : Rules(Rules) {}

  /// Replays \p D. \p Lemmas are re-registered before replay: they model
  /// manual proofs, which a Coq checker also accepts from their (already
  /// checked) statements rather than re-deriving them.
  ProofCheckResult check(const lithium::Derivation &D,
                         const std::vector<pure::Lemma> &Lemmas = {});

private:
  const lithium::RuleRegistry &Rules;
};

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_PROOFCHECKER_H
