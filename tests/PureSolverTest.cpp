//===- PureSolverTest.cpp - Unit tests for the side-condition solver ------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "pure/CollectionSolver.h"
#include "pure/LinearSolver.h"
#include "pure/Solver.h"

#include <gtest/gtest.h>

#include <random>

using namespace rcc::pure;

namespace {
TermRef nvar(const char *N) { return mkVar(N, Sort::Nat); }
TermRef mvar(const char *N) { return mkVar(N, Sort::MSet); }
} // namespace

//===----------------------------------------------------------------------===//
// Linear arithmetic
//===----------------------------------------------------------------------===//

TEST(LinearSolver, Transitivity) {
  TermRef A = nvar("a"), B = nvar("b"), C = nvar("c");
  std::vector<TermRef> Facts = {mkLe(A, B), mkLe(B, C)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, C)));
  EXPECT_FALSE(LinearSolver::prove(Facts, mkLe(C, A)));
}

TEST(LinearSolver, StrictAndNonStrict) {
  TermRef A = nvar("a"), B = nvar("b");
  std::vector<TermRef> Facts = {mkLt(A, B)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, B)));
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(mkAdd(A, mkNat(1)), B)))
      << "integer tightening: a < b gives a + 1 <= b";
  EXPECT_TRUE(LinearSolver::prove(Facts, mkNe(A, B)));
}

TEST(LinearSolver, NatNonNegativity) {
  TermRef N = nvar("n");
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), N)))
      << "nat atoms are implicitly non-negative";
  EXPECT_FALSE(LinearSolver::prove({}, mkLe(mkNat(1), N)));
}

TEST(LinearSolver, TruncatedSubtraction) {
  TermRef A = nvar("a"), N = nvar("n");
  // Without n <= a only the weak bounds hold.
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkSub(A, N), A)));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), mkSub(A, N))));
  // The alloc example's key condition: n <= a |- a - n <= a.
  std::vector<TermRef> Facts = {mkLe(N, A)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(mkSub(A, N), A)));
  // a - n >= a - n trivially; and a - n + n touches the truncation bound:
  // under n <= a we have (a - n) >= a - n (linear), so a <= (a - n) + n.
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(A, mkAdd(mkSub(A, N), N))));
}

TEST(LinearSolver, EqualityAndDisequality) {
  TermRef A = nvar("a"), B = nvar("b");
  std::vector<TermRef> Facts = {mkLe(A, B), mkLe(B, A)};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkEq(A, B)));
  std::vector<TermRef> Facts2 = {mkLt(A, B)};
  EXPECT_TRUE(LinearSolver::prove(Facts2, mkNe(B, A)));
}

TEST(LinearSolver, InconsistentFactsProveAnything) {
  TermRef A = nvar("a");
  std::vector<TermRef> Facts = {mkLe(mkNat(3), A), mkLe(A, mkNat(2))};
  EXPECT_TRUE(LinearSolver::inconsistent(Facts));
  EXPECT_TRUE(LinearSolver::prove(Facts, mkEq(mkNat(0), mkNat(1))));
}

TEST(LinearSolver, CoefficientsAndConstants) {
  TermRef X = nvar("x");
  // 2x <= 7 over integers: x <= 3 (requires no rounding in our encoding to
  // prove x <= 3 is NOT derivable via pure FM over rationals; check the
  // weaker x <= 4 instead, which rational reasoning gives).
  std::vector<TermRef> Facts = {mkLe(mkMul(mkNat(2), X), mkNat(7))};
  EXPECT_TRUE(LinearSolver::prove(Facts, mkLe(X, mkNat(4))));
}

TEST(LinearSolver, LengthAtomsAreNonNegative) {
  TermRef Xs = mkVar("xs", Sort::List);
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), mkLLen(Xs))));
}

TEST(LinearSolver, ModBounds) {
  TermRef X = nvar("x");
  TermRef M = mkMod(X, mkNat(8));
  EXPECT_TRUE(LinearSolver::prove({}, mkLt(M, mkNat(8))));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkNat(0), M)));
}

TEST(LinearSolver, MinMaxBounds) {
  TermRef A = nvar("a"), B = nvar("b");
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(mkMin(A, B), A)));
  EXPECT_TRUE(LinearSolver::prove({}, mkLe(B, mkMax(A, B))));
}

//===----------------------------------------------------------------------===//
// Collection solver
//===----------------------------------------------------------------------===//

static bool arith(const std::vector<TermRef> &F, TermRef G) {
  return G->isTrue() || LinearSolver::prove(F, G);
}

TEST(CollectionSolver, MultisetUnionNormalization) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  // {[n]} (+) s  =  s (+) {[n]}
  TermRef L = mkMUnion(mkMSingle(N), S);
  TermRef R = mkMUnion(S, mkMSingle(N));
  EXPECT_TRUE(CollectionSolver::prove({}, mkEq(L, R), arith));
}

TEST(CollectionSolver, NonEmptyDisequality) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  TermRef M = mkMUnion(mkMSingle(N), S);
  EXPECT_TRUE(CollectionSolver::prove({}, mkNe(M, mkMEmpty()), arith));
  EXPECT_FALSE(CollectionSolver::prove({}, mkNe(S, mkMEmpty()), arith));
}

TEST(CollectionSolver, RewriteByHypothesisEquality) {
  TermRef N = nvar("n");
  TermRef S = mvar("s"), Tail = mvar("tail");
  // s = {[n]} (+) tail  |-  s != {[]}
  std::vector<TermRef> Facts = {mkEq(S, mkMUnion(mkMSingle(N), Tail))};
  EXPECT_TRUE(CollectionSolver::prove(Facts, mkNe(S, mkMEmpty()), arith));
}

TEST(CollectionSolver, Membership) {
  TermRef N = nvar("n");
  TermRef S = mvar("s");
  TermRef M = mkMUnion(mkMSingle(N), S);
  EXPECT_TRUE(CollectionSolver::prove({}, mkMElem(N, M), arith));
  std::vector<TermRef> Facts = {mkMElem(nvar("k"), S)};
  EXPECT_TRUE(CollectionSolver::prove(Facts, mkMElem(nvar("k"), M), arith));
}

TEST(CollectionSolver, SortednessForallTransfer) {
  // The free-list invariant (Figure 3): from
  //   forall k, k in tail -> n <= k      and   m <= n
  // prove
  //   forall k, k in ({[n]} (+) tail) -> m <= k.
  TermRef N = nvar("n"), M = nvar("m");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef SortedTail =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  std::vector<TermRef> Facts = {SortedTail, mkLe(M, N)};
  TermRef Goal = mkForall(
      "k", Sort::Nat,
      mkImplies(mkMElem(K, mkMUnion(mkMSingle(N), Tail)), mkLe(M, K)));
  EXPECT_TRUE(CollectionSolver::prove(Facts, Goal, arith));
  // But not with the inequality flipped.
  std::vector<TermRef> BadFacts = {SortedTail, mkLe(N, M), mkLt(N, M)};
  TermRef BadGoal = mkForall(
      "k", Sort::Nat,
      mkImplies(mkMElem(K, mkMUnion(mkMSingle(N), Tail)), mkLe(M, K)));
  EXPECT_FALSE(CollectionSolver::prove(BadFacts, BadGoal, arith));
}

TEST(CollectionSolver, InstantiateMembershipForalls) {
  TermRef N = nvar("n");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef Sorted =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  TermRef Mem = mkMElem(nvar("j"), Tail);
  auto Derived = CollectionSolver::instantiateMembershipForalls({Sorted, Mem});
  ASSERT_FALSE(Derived.empty());
  EXPECT_EQ(Derived[0], mkLe(N, nvar("j")));
}

TEST(CollectionSolver, SetUnionIdempotent) {
  TermRef S = mkVar("s", Sort::Set);
  EXPECT_TRUE(CollectionSolver::prove({}, mkEq(mkSUnion(S, S), S), arith));
}

//===----------------------------------------------------------------------===//
// Full solver pipeline
//===----------------------------------------------------------------------===//

TEST(PureSolver, DefaultProvesArithmetic) {
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n"), A = nvar("a");
  SolveResult R = PS.prove({mkLe(N, A)}, mkLe(mkSub(A, N), A), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_FALSE(R.Manual);
  EXPECT_EQ(R.Engine, "default");
}

TEST(PureSolver, AllocPostconditionIteSplit) {
  // The Figure 1 postcondition refinement: under n <= a,
  //   (n <= a ? a - n : a) = a - n.
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n"), A = nvar("a");
  TermRef Ite = mkIte(mkLe(N, A), mkSub(A, N), A);
  SolveResult R = PS.prove({mkLe(N, A)}, mkEq(Ite, mkSub(A, N)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_FALSE(R.Manual);
  // And under a < n, it equals a.
  SolveResult R2 = PS.prove({mkLt(A, N)}, mkEq(Ite, A), Env);
  EXPECT_TRUE(R2.Proved) << R2.FailureReason;
}

TEST(PureSolver, EvarEqualityUnification) {
  PureSolver PS;
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::Nat);
  SolveResult R = PS.prove({}, mkEq(E, mkAdd(nvar("x"), mkNat(1))), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(Env.resolve(E), mkAdd(nvar("x"), mkNat(1)));
}

TEST(PureSolver, EvarNeNilTransform) {
  // The paper's example: ?xs != [] instantiates ?xs := ?y :: ?ys.
  PureSolver PS;
  EvarEnv Env;
  TermRef E = Env.fresh(Sort::List);
  SolveResult R = PS.prove({}, mkNe(E, mkLNil()), Env);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(Env.resolve(E)->kind(), TermKind::LCons);
}

TEST(PureSolver, HypothesisSubstitution) {
  PureSolver PS;
  EvarEnv Env;
  // xs = [] and ys = xs |- length ys = 0.
  TermRef Xs = mkVar("xs", Sort::List), Ys = mkVar("ys", Sort::List);
  SolveResult R = PS.prove({mkEq(Xs, mkLNil()), mkEq(Ys, Xs)},
                           mkEq(mkLLen(Ys), mkNat(0)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PureSolver, MultisetNeedsExtraSolverAndIsCountedManual) {
  PureSolver PS;
  EvarEnv Env;
  TermRef N = nvar("n");
  TermRef S = mvar("s"), Tail = mvar("tail");
  std::vector<TermRef> Hyps = {mkEq(S, mkMUnion(mkMSingle(N), Tail))};
  TermRef Goal = mkNe(S, mkMEmpty());
  // Without the extra solver the goal fails...
  SolveResult R1 = PS.prove(Hyps, Goal, Env);
  EXPECT_FALSE(R1.Proved);
  // ...with multiset_solver enabled it succeeds and is counted manual.
  PS.enableSolver("multiset_solver");
  SolveResult R2 = PS.prove(Hyps, Goal, Env);
  EXPECT_TRUE(R2.Proved) << R2.FailureReason;
  EXPECT_TRUE(R2.Manual);
  EXPECT_EQ(R2.Engine, "multiset_solver");
  EXPECT_EQ(PS.stats().ManualProved, 1u);
  EXPECT_EQ(PS.stats().Failed, 1u);
}

TEST(PureSolver, LemmaDischargesUninterpretedFact) {
  // Model of the hashmap's manual pure reasoning: a lemma about an
  // uninterpreted function probe(xs, k) < length(xs).
  PureSolver PS;
  EvarEnv Env;
  TermRef Xs = mkVar("xs", Sort::List);
  TermRef K = mkVar("k!b", Sort::Nat);
  TermRef ProbeK = mkApp("probe", Sort::Nat, {Xs, K});
  TermRef LemmaProp = mkForall(
      "k", Sort::Nat,
      mkLt(mkApp("probe", Sort::Nat, {Xs, mkVar("k", Sort::Nat)}),
           mkLLen(Xs)));
  PS.addLemma({"probe_bound", LemmaProp, 12});

  SolveResult R = PS.prove({}, mkLt(ProbeK, mkLLen(Xs)), Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_TRUE(R.Manual);
  EXPECT_EQ(R.Engine, "lemma:probe_bound");
}

TEST(PureSolver, ImplicationAndConjunctionGoals) {
  PureSolver PS;
  EvarEnv Env;
  TermRef A = nvar("a"), B = nvar("b");
  TermRef Goal = mkImplies(mkLe(A, B), mkAnd(mkLe(A, mkAdd(B, mkNat(1))),
                                             mkLe(mkNat(0), A)));
  SolveResult R = PS.prove({}, Goal, Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
}

TEST(PureSolver, FailureGivesReason) {
  PureSolver PS;
  EvarEnv Env;
  SolveResult R = PS.prove({}, mkLe(nvar("b"), nvar("a")), Env);
  EXPECT_FALSE(R.Proved);
  EXPECT_NE(R.FailureReason.find("cannot prove side condition"),
            std::string::npos);
}

TEST(PureSolver, FreelistInsertInvariant) {
  // Integration-style: the side conditions arising when `free` (Figure 3)
  // inserts a chunk of size sz before the current chunk of size n:
  // given sz <= n and sortedness of the current list, the new list
  // {[sz]} (+) ({[n]} (+) tail) is sorted w.r.t. sz.
  PureSolver PS;
  PS.enableSolver("multiset_solver");
  EvarEnv Env;
  TermRef N = nvar("n"), Sz = nvar("sz");
  TermRef Tail = mvar("tail");
  TermRef K = mkVar("k", Sort::Nat);
  TermRef Sorted =
      mkForall("k", Sort::Nat, mkImplies(mkMElem(K, Tail), mkLe(N, K)));
  std::vector<TermRef> Hyps = {Sorted, mkLe(Sz, N)};
  TermRef NewList = mkMUnion(mkMSingle(N), Tail);
  TermRef Goal = mkForall(
      "k", Sort::Nat, mkImplies(mkMElem(K, NewList), mkLe(Sz, K)));
  SolveResult R = PS.prove(Hyps, Goal, Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_TRUE(R.Manual);
}

//===----------------------------------------------------------------------===//
// The per-instance normalization memo
//===----------------------------------------------------------------------===//

namespace {

/// One battery goal, built identically into each EvarEnv it is given: the
/// evars it allocates get the same ids, so verdicts and bindings compare
/// across environments by pointer.
struct MemoCase {
  std::vector<TermRef> Hyps;
  TermRef Goal = nullptr;
  std::vector<TermRef> Evars; ///< compared by their resolved form
};

/// Builds case \p Kind over context \p Gamma. The evar ?p is bound per
/// case to a different variable; when \p MentionP, the context mentions it,
/// so equal unresolved contexts resolve to different ones.
MemoCase buildMemoCase(unsigned Kind, unsigned PBind, bool MentionP,
                       const std::vector<TermRef> &Gamma, EvarEnv &Env) {
  TermRef A = nvar("a"), B = nvar("b"), C = nvar("c"), N = nvar("n");
  MemoCase MC;
  TermRef P = Env.fresh(Sort::Nat, "p");
  Env.unseal(P->num());
  Env.bind(P->num(), PBind == 0 ? A : PBind == 1 ? C : N);
  MC.Evars.push_back(P);
  MC.Hyps = Gamma;
  if (MentionP)
    MC.Hyps.push_back(mkLe(P, mkNat(1000)));
  switch (Kind) {
  case 0:
    MC.Goal = mkLe(mkSub(A, N), A);
    break;
  case 1:
    MC.Goal = mkLe(C, A);
    break;
  case 2:
    MC.Goal = mkEq(mkLLen(mkVar("xs", Sort::List)), mkNat(0));
    break;
  case 3: { // ?b
    TermRef E = Env.fresh(Sort::Bool, "b");
    MC.Evars.push_back(E);
    MC.Goal = E;
    break;
  }
  case 4: { // ?xs != []
    TermRef E = Env.fresh(Sort::List, "xs");
    MC.Evars.push_back(E);
    MC.Goal = mkNe(E, mkLNil());
    break;
  }
  case 5: { // ?k = b + 1
    TermRef E = Env.fresh(Sort::Nat, "k");
    MC.Evars.push_back(E);
    MC.Goal = mkEq(E, mkAdd(B, mkNat(1)));
    break;
  }
  case 6: // exists k, k = b /\ a <= b + k
    MC.Goal = mkExists(
        "k", Sort::Nat,
        mkAnd(mkEq(mkVar("k", Sort::Nat), B),
              mkLe(A, mkAdd(B, mkVar("k", Sort::Nat)))));
    break;
  case 7: // needs the context's ?p = n
    MC.Hyps.push_back(mkEq(P, N));
    MC.Goal = mkLe(N, A);
    break;
  case 8: // multiset goal: proved by the extra solver, counted manual
    MC.Hyps.push_back(mkEq(mkVar("s", Sort::MSet),
                           mkMUnion(mkMSingle(N), mkVar("t", Sort::MSet))));
    MC.Goal = mkNe(mkVar("s", Sort::MSet), mkMEmpty());
    break;
  default: // unprovable in general
    MC.Goal = mkLe(A, N);
    break;
  }
  return MC;
}

} // namespace

TEST(PureSolverMemo, WarmSolverMatchesFreshSolverPerGoal) {
  // A seeded battery proved in sequence by one warm solver, over a shared
  // context that grows, shrinks back and mentions bound evars, must agree
  // goal by goal with a fresh solver per goal: same verdict, manual bit,
  // engine and evar bindings.
  TermRef A = nvar("a"), B = nvar("b"), C = nvar("c"), N = nvar("n");
  TermRef Xs = mkVar("xs", Sort::List), Ys = mkVar("ys", Sort::List);
  std::vector<TermRef> Pool = {
      mkLe(N, A),
      mkEq(B, mkAdd(A, mkNat(1))), // v = t: substituted away
      mkLt(C, N),
      mkEq(Xs, mkLNil()),
      mkEq(mkLLen(Ys), N),
      mkEq(mkAdd(C, mkNat(2)), N), // t = v
      mkLe(A, mkNat(100)),
      mkAnd(mkLe(mkNat(1), C), mkLe(C, B)),
      mkImplies(mkLe(N, A), mkLe(C, A)),
  };
  std::mt19937 Rng(20210620);
  PureSolver Warm;
  Warm.enableSolver("multiset_solver");
  std::vector<TermRef> Gamma;
  unsigned Proved = 0, Manual = 0, Bound = 0;
  const unsigned Goals = 400;
  for (unsigned I = 0; I < Goals; ++I) {
    switch (Rng() % 6) {
    case 0:
      Gamma.push_back(Pool[Rng() % Pool.size()]);
      break;
    case 1:
      if (!Gamma.empty())
        Gamma.pop_back();
      break;
    default: // reuse the context as it is
      break;
    }
    unsigned Kind = Rng() % 10, PBind = Rng() % 3;
    bool MentionP = Rng() % 2;

    EvarEnv WEnv, FEnv;
    MemoCase W = buildMemoCase(Kind, PBind, MentionP, Gamma, WEnv);
    MemoCase F = buildMemoCase(Kind, PBind, MentionP, Gamma, FEnv);
    ASSERT_EQ(W.Goal, F.Goal);
    PureSolver Fresh;
    Fresh.enableSolver("multiset_solver");
    SolveResult WR = Warm.prove(W.Hyps, W.Goal, WEnv);
    SolveResult FR = Fresh.prove(F.Hyps, F.Goal, FEnv);
    SCOPED_TRACE("goal " + std::to_string(I) + ": " + W.Goal->str());
    EXPECT_EQ(WR.Proved, FR.Proved);
    EXPECT_EQ(WR.Manual, FR.Manual);
    EXPECT_EQ(WR.Engine, FR.Engine);
    EXPECT_EQ(WEnv.numCreated(), FEnv.numCreated());
    for (size_t J = 0; J < W.Evars.size(); ++J) {
      EXPECT_EQ(WEnv.resolve(W.Evars[J]), FEnv.resolve(F.Evars[J]));
      Bound += J > 0 && FEnv.isBound(F.Evars[J]->num());
    }
    Proved += FR.Proved;
    Manual += FR.Manual;
  }
  // The battery exercises every outcome the comparison covers.
  EXPECT_GT(Proved, Goals / 4);
  EXPECT_LT(Proved, Goals);
  EXPECT_GT(Manual, 0u);
  EXPECT_GT(Bound, 0u);
}

TEST(PureSolverMemo, AddedSimplifierRuleReachesAWarmSolver) {
  // The context mentions double(n); only the unfold-double rule relates it
  // to n + n. A solver that normalized this context before the rule was
  // added must not keep serving the stale normal form.
  TermRef N = nvar("n"), A = nvar("a");
  std::vector<TermRef> Hyps = {
      mkLe(mkApp("double", Sort::Nat, {N}), A), mkLe(N, mkNat(50))};
  TermRef Goal = mkLe(mkAdd(N, N), A);
  PureSolver PS;
  EvarEnv Env;
  EXPECT_FALSE(PS.prove(Hyps, Goal, Env).Proved);
  EXPECT_FALSE(PS.prove(Hyps, Goal, Env).Proved);
  PS.simplifier().addRule({"unfold-double", true, [](TermRef T) -> TermRef {
                             if (T->kind() == TermKind::App &&
                                 T->name() == "double")
                               return mkAdd(T->arg(0), T->arg(0));
                             return nullptr;
                           }});
  SolveResult R = PS.prove(Hyps, Goal, Env);
  EXPECT_TRUE(R.Proved) << R.FailureReason;
  EXPECT_EQ(R.Engine, "default");
}
