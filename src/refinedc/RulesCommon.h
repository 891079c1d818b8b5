//===- RulesCommon.h - Shared helpers for the rule library -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the rule library translation units. Not part
/// of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_RULESCOMMON_H
#define RCC_REFINEDC_RULESCOMMON_H

#include "refinedc/Checker.h"

namespace rcc::refinedc::rules {

using lithium::Engine;
using lithium::GoalRef;
using lithium::JudgKind;
using lithium::Judgment;
using pure::Sort;
using pure::TermRef;

inline VerifyCtx &ctxOf(Engine &E) {
  assert(E.Ctx && "engine has no verification context");
  return *static_cast<VerifyCtx *>(E.Ctx);
}

/// Pure (side-effect-free) peeling of Constraint wrappers, for rule Matches.
inline TypeRef peel(TypeRef T) {
  while (T->K == TypeKind::Constraint)
    T = T->Children[0];
  return T;
}

/// Effectful strip: Constraint facts go to Γ; evars resolve.
inline TypeRef stripC(Engine &E, TypeRef T) {
  T = E.resolveTy(T);
  while (T->K == TypeKind::Constraint) {
    E.addFact(T->Refn);
    T = E.resolveTy(T->Children[0]);
  }
  return T;
}

inline Sort sortOfIntType(caesium::IntType Ity) {
  return Ity.Signed ? Sort::Int : Sort::Nat;
}

inline TermRef nullLocTerm() {
  return pure::mkApp("NULL", Sort::Loc, {});
}

GoalRef mkSubsumeV(TermRef V, TypeRef T1, TypeRef T2, GoalRef K,
                   rcc::SourceLoc Loc = {});
GoalRef mkSubsumeL(TermRef L, TypeRef T1, TypeRef T2, GoalRef K,
                   rcc::SourceLoc Loc = {});

/// Applies a parameter substitution to a type / resource list.
TypeRef substTypeMap(TypeRef T,
                     const std::map<std::string, TermRef> &Subst);
ResList substResMap(ResList H, const std::map<std::string, TermRef> &Subst);

/// Finds (without removing) a value atom for \p V; nullptr if absent.
const ResAtom *findValAtom(Engine &E, TermRef V);

} // namespace rcc::refinedc::rules

#endif // RCC_REFINEDC_RULESCOMMON_H
