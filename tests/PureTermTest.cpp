//===- PureTermTest.cpp - Unit tests for terms, simplify, unify -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/EvarEnv.h"
#include "pure/Simplify.h"
#include "pure/Term.h"
#include "pure/Unify.h"

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

using namespace rcc::pure;

namespace {
/// Alpha-equivalence: equal up to the names of bound variables. \p Bound
/// pairs the binders of A and B that are in scope, innermost last.
bool alphaEq(TermRef A, TermRef B,
             std::vector<std::pair<std::string, std::string>> &Bound) {
  if (A->kind() != B->kind() || A->sort() != B->sort() ||
      A->num() != B->num() || A->numArgs() != B->numArgs())
    return false;
  if (A->kind() == TermKind::Var) {
    for (auto It = Bound.rbegin(); It != Bound.rend(); ++It) {
      bool InA = It->first == A->name(), InB = It->second == B->name();
      if (InA || InB)
        return InA && InB;
    }
    return A->name() == B->name();
  }
  if (A->isBinder()) {
    if (A->binderSort() != B->binderSort())
      return false;
    Bound.push_back({A->name(), B->name()});
    bool Eq = alphaEq(A->arg(0), B->arg(0), Bound);
    Bound.pop_back();
    return Eq;
  }
  if (A->name() != B->name())
    return false;
  for (unsigned I = 0; I < A->numArgs(); ++I)
    if (!alphaEq(A->arg(I), B->arg(I), Bound))
      return false;
  return true;
}

bool alphaEq(TermRef A, TermRef B) {
  std::vector<std::pair<std::string, std::string>> Bound;
  return alphaEq(A, B, Bound);
}

/// Substitutions that each rename at least one binder: `n := k + j` under
/// binders named k and j (nested, shadowing, and next to free `k!1`).
std::vector<TermRef> capturingSubstitutions() {
  TermRef K = mkVar("k", Sort::Nat), J = mkVar("j", Sort::Nat);
  TermRef N = mkVar("n", Sort::Nat);
  std::vector<TermRef> Out;
  for (int64_t I = 0; I < 50; ++I) {
    TermRef C = mkNat(I);
    TermRef T1 = mkForall("k", Sort::Nat, mkLe(mkAdd(K, C), N));
    TermRef T2 = mkForall(
        "k", Sort::Nat,
        mkExists("j", Sort::Nat, mkLe(mkAdd(K, J), mkAdd(N, C))));
    TermRef T3 = mkForall(
        "k", Sort::Nat,
        mkAnd(mkLe(mkVar("k!1", Sort::Nat), N),
              mkForall("k", Sort::Nat, mkLt(K, mkAdd(N, C)))));
    for (TermRef T : {T1, T2, T3})
      Out.push_back(substVar(T, "n", mkAdd(K, J)));
  }
  return Out;
}
} // namespace

TEST(Term, HashConsingGivesPointerEquality) {
  TermRef A = mkAdd(mkVar("x", Sort::Nat), mkNat(1));
  TermRef B = mkAdd(mkVar("x", Sort::Nat), mkNat(1));
  EXPECT_EQ(A, B);
  TermRef C = mkAdd(mkVar("x", Sort::Int), mkNat(1));
  EXPECT_NE(A, C) << "sorts distinguish terms";
}

TEST(Term, Printing) {
  TermRef T = mkLe(mkVar("n", Sort::Nat), mkVar("a", Sort::Nat));
  EXPECT_EQ(T->str(), "(n <= a)");
  TermRef M = mkMUnion(mkMSingle(mkVar("n", Sort::Nat)), mkVar("s", Sort::MSet));
  EXPECT_EQ(M->str(), "({[n]} (+) s)");
}

TEST(Term, SubstVarAvoidsCapture) {
  // forall k. k <= n, substitute n := k  =>  binder must be renamed.
  TermRef Body = mkLe(mkVar("k", Sort::Nat), mkVar("n", Sort::Nat));
  TermRef F = mkForall("k", Sort::Nat, Body);
  TermRef R = substVar(F, "n", mkVar("k", Sort::Nat));
  ASSERT_EQ(R->kind(), TermKind::Forall);
  EXPECT_NE(R->name(), "k") << "binder should have been freshened";
  // The free k (from the substitution) must remain free.
  EXPECT_TRUE(containsFreeVar(R, "k"));
}

TEST(Term, SubstVarRenamesToTheSmallestFreeName) {
  // k!1 is free in the body, so the renamed binder is k!2.
  TermRef K = mkVar("k", Sort::Nat);
  TermRef F = mkForall(
      "k", Sort::Nat,
      mkLe(mkAdd(K, mkVar("k!1", Sort::Nat)), mkVar("n", Sort::Nat)));
  TermRef R = substVar(F, "n", K);
  ASSERT_EQ(R->kind(), TermKind::Forall);
  EXPECT_EQ(R->name(), "k!2");
  EXPECT_TRUE(containsFreeVar(R, "k"));
  EXPECT_TRUE(containsFreeVar(R, "k!1"));
  EXPECT_EQ(substVar(F, "n", K), R) << "the rename is deterministic";
}

TEST(Term, CapturingSubstitutionsAgreeAcrossThreads) {
  constexpr unsigned NThreads = 4;
  std::vector<std::vector<TermRef>> Results(NThreads);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NThreads; ++T)
    Threads.emplace_back([&Results, T] {
      for (int Rep = 0; Rep < 20; ++Rep)
        Results[T] = capturingSubstitutions();
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<TermRef> Ref = capturingSubstitutions();
  for (unsigned T = 0; T < NThreads; ++T) {
    ASSERT_EQ(Results[T].size(), Ref.size());
    for (size_t I = 0; I < Ref.size(); ++I) {
      EXPECT_TRUE(alphaEq(Results[T][I], Ref[I]))
          << Results[T][I]->str() << " vs " << Ref[I]->str();
      // Capture was avoided: the substituted k and j stay free.
      EXPECT_TRUE(containsFreeVar(Results[T][I], "k"));
      EXPECT_TRUE(containsFreeVar(Results[T][I], "j"));
    }
  }
}

TEST(Term, SubstShadowedBinderUnchanged) {
  TermRef Body = mkLe(mkVar("k", Sort::Nat), mkNat(3));
  TermRef F = mkForall("k", Sort::Nat, Body);
  EXPECT_EQ(substVar(F, "k", mkNat(7)), F);
}

TEST(Term, CollectEVars) {
  EvarEnv Env;
  TermRef E1 = Env.fresh(Sort::Nat);
  TermRef T = mkAdd(E1, mkVar("x", Sort::Nat));
  EXPECT_TRUE(containsEVar(T));
  std::vector<int64_t> Ids;
  collectEVars(T, Ids);
  ASSERT_EQ(Ids.size(), 1u);
  EXPECT_EQ(Ids[0], E1->num());
}

TEST(EvarEnv, SealedEvarsRejectBinding) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  EXPECT_TRUE(Env.isSealed(E->num()));
  EXPECT_FALSE(Env.bind(E->num(), mkNat(4))) << "sealed evars must not bind";
  Env.unseal(E->num());
  EXPECT_TRUE(Env.bind(E->num(), mkNat(4)));
  EXPECT_EQ(Env.resolve(E), mkNat(4));
}

TEST(EvarEnv, OccursCheck) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  Env.unseal(E->num());
  EXPECT_FALSE(Env.bind(E->num(), mkAdd(E, mkNat(1))));
}

TEST(EvarEnv, ResolveIsRecursive) {
  EvarEnv Env;
  TermRef E1 = Env.fresh(Sort::Nat);
  TermRef E2 = Env.fresh(Sort::Nat);
  Env.unseal(E1->num());
  Env.unseal(E2->num());
  EXPECT_TRUE(Env.bind(E1->num(), mkAdd(E2, mkNat(1))));
  EXPECT_TRUE(Env.bind(E2->num(), mkNat(2)));
  EXPECT_EQ(Env.resolve(E1), mkAdd(mkNat(2), mkNat(1)));
}

TEST(EvarEnv, ResolveWithoutBindingsReturnsItsArgument) {
  EvarEnv Env;
  TermRef T = mkAdd(Env.fresh(Sort::Nat), mkVar("x", Sort::Nat));
  EXPECT_EQ(Env.resolve(T), T);
}

TEST(Simplify, ConstantFolding) {
  Simplifier S;
  EXPECT_EQ(S.simplify(mkAdd(mkNat(2), mkNat(3))), mkNat(5));
  EXPECT_EQ(S.simplify(mkSub(mkNat(2), mkNat(5))), mkNat(0))
      << "nat subtraction truncates";
  EXPECT_EQ(S.simplify(mkSub(mkInt(2), mkInt(5))), mkInt(-3));
  EXPECT_EQ(S.simplify(mkLe(mkNat(2), mkNat(3))), mkTrue());
  EXPECT_EQ(S.simplify(mkMul(mkVar("x", Sort::Nat), mkNat(0))), mkNat(0));
}

TEST(Simplify, AlgebraicIdentities) {
  Simplifier S;
  TermRef X = mkVar("x", Sort::Nat);
  EXPECT_EQ(S.simplify(mkAdd(X, mkNat(0))), X);
  EXPECT_EQ(S.simplify(mkSub(mkAdd(X, mkVar("y", Sort::Nat)),
                             mkVar("y", Sort::Nat))),
            X);
  EXPECT_EQ(S.simplify(mkEq(X, X)), mkTrue());
  EXPECT_EQ(S.simplify(mkIte(mkTrue(), X, mkNat(7))), X);
}

TEST(Simplify, ListNormalization) {
  Simplifier S;
  TermRef L = mkLCons(mkNat(1), mkLCons(mkNat(2), mkLNil()));
  EXPECT_EQ(S.simplify(mkLLen(L)), mkNat(2));
  EXPECT_EQ(S.simplify(mkLNth(L, mkNat(1))), mkNat(2));
  EXPECT_EQ(S.simplify(mkLApp(mkLNil(), L)), L);
  TermRef Upd = mkLUpdate(L, mkNat(0), mkNat(9));
  EXPECT_EQ(S.simplify(mkLNth(Upd, mkNat(0))), mkNat(9));
  EXPECT_EQ(S.simplify(mkLNth(Upd, mkNat(1))), mkNat(2));
  EXPECT_EQ(S.simplify(mkLLen(Upd)), mkNat(2));
}

TEST(Simplify, MultisetNormalization) {
  Simplifier S;
  TermRef M = mkMUnion(mkMEmpty(), mkMSingle(mkNat(4)));
  EXPECT_EQ(S.simplify(M), mkMSingle(mkNat(4)));
  EXPECT_EQ(S.simplify(mkMElem(mkNat(4), M)), mkTrue());
  EXPECT_EQ(S.simplify(mkMElem(mkNat(5), M)), mkFalse());
  EXPECT_EQ(S.simplify(mkMSize(M)), mkNat(1));
}

TEST(Simplify, PropositionalNormalization) {
  Simplifier S;
  TermRef P = mkVar("p", Sort::Bool);
  EXPECT_EQ(S.simplify(mkNot(mkNot(P))), P);
  EXPECT_EQ(S.simplify(mkAnd(mkTrue(), P)), P);
  EXPECT_EQ(S.simplify(mkImplies(mkFalse(), P)), mkTrue());
  TermRef A = mkVar("a", Sort::Nat), B = mkVar("b", Sort::Nat);
  EXPECT_EQ(S.simplify(mkNot(mkLe(A, B))), mkLt(B, A));
}

TEST(Simplify, ExpandHypSplitsStructure) {
  Simplifier S;
  TermRef Xs = mkVar("xs", Sort::List), Ys = mkVar("ys", Sort::List);
  auto Facts = S.expandHyp(mkEq(mkLApp(Xs, Ys), mkLNil()));
  ASSERT_EQ(Facts.size(), 2u);
  EXPECT_EQ(Facts[0], mkEq(Xs, mkLNil()));
  EXPECT_EQ(Facts[1], mkEq(Ys, mkLNil()));
}

TEST(Simplify, UserRuleExtensibility) {
  Simplifier S;
  // Register: double(x) ~> x + x.
  S.addRule({"unfold-double", true, [](TermRef T) -> TermRef {
               if (T->kind() == TermKind::App && T->name() == "double")
                 return mkAdd(T->arg(0), T->arg(0));
               return nullptr;
             }});
  TermRef T = mkApp("double", Sort::Nat, {mkNat(3)});
  EXPECT_EQ(S.simplify(T), mkNat(6));
}

TEST(Unify, BindsUnboundEvar) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  TermRef L = mkVar("l", Sort::Nat);
  EXPECT_TRUE(unifyTerms(E, L, Env));
  EXPECT_EQ(Env.resolve(E), L);
}

TEST(Unify, StructuralDescentThroughNonInjective) {
  // The paper's documented heuristic: length ?x = length l binds ?x := l.
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::List);
  TermRef L = mkVar("l", Sort::List);
  EXPECT_TRUE(unifyTerms(mkLLen(E), mkLLen(L), Env));
  EXPECT_EQ(Env.resolve(E), L);
}

TEST(Unify, ArithmeticInversion) {
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  EXPECT_TRUE(unifyTerms(mkAdd(E, mkNat(3)), mkNat(10), Env));
  EXPECT_EQ(Env.resolve(E), mkNat(7));
}

TEST(Unify, MismatchFails) {
  EvarEnv Env;
  EXPECT_FALSE(unifyTerms(mkNat(1), mkNat(2), Env));
  EXPECT_FALSE(
      unifyTerms(mkLLen(mkVar("a", Sort::List)), mkNat(3), Env));
}
