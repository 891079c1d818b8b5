//===- PortfolioTest.cpp - Solver-portfolio leaf dispatch tests -----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the pure solver's leaf dispatch (DESIGN.md, "Solver
/// portfolio"): the bit-vector backend extends the solver under `On`, `Off`
/// and `On` agree wherever that backend is irrelevant, attribution follows
/// the fixed priority order, and copied solvers keep their configuration.
///
//===----------------------------------------------------------------------===//

#include "pure/BitVectorSolver.h"
#include "pure/EvarEnv.h"
#include "pure/Solver.h"
#include "pure/Term.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace rcc::pure;

namespace {

TermRef nvar(const std::string &N) { return mkVar(N, Sort::Nat); }
TermRef pow2(TermRef E) { return mkApp("pow2", Sort::Nat, {E}); }
TermRef lor(TermRef A, TermRef B) { return mkApp("lor", Sort::Nat, {A, B}); }
TermRef land(TermRef A, TermRef B) { return mkApp("land", Sort::Nat, {A, B}); }

constexpr int64_t U32Max = 4294967295LL;

/// The goal battery: a mix of linear-only, bitvector-only, both-provable,
/// and unprovable goals.
struct GoalCase {
  std::vector<TermRef> Hyps;
  TermRef Goal;
};

std::vector<GoalCase> goalBattery() {
  TermRef W = nvar("w"), I = nvar("i"), X = nvar("x");
  std::vector<GoalCase> Cases;
  // Linear-only (no word ops): default engine territory.
  Cases.push_back({{mkLe(X, mkNat(7))}, mkLe(X, mkNat(9))});
  Cases.push_back({{mkLt(X, mkNat(4)), mkLe(mkNat(2), X)},
                   mkNe(X, mkNat(9))});
  // Bitvector-only: linear can't reason about pow2/lor.
  Cases.push_back({{mkLt(I, mkNat(32))}, mkLe(pow2(I), mkNat(U32Max))});
  Cases.push_back({{mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))},
                   mkLe(lor(W, pow2(I)), mkNat(U32Max))});
  // Provable by both (word op present but goal is reflexive/linear).
  Cases.push_back({{mkLe(W, mkNat(255))},
                   mkLe(land(W, mkNat(15)), land(W, mkNat(15)))});
  // Unprovable: every engine runs to completion and fails.
  Cases.push_back({{mkLe(W, mkNat(U32Max))}, mkLe(W, mkNat(255))});
  Cases.push_back({{mkLt(I, mkNat(33))}, mkLe(pow2(I), mkNat(U32Max))});
  // Unprovable without word ops, with lemmas and extra solvers in play.
  Cases.push_back({{mkLe(X, mkNat(9))}, mkLe(X, mkNat(7))});
  return Cases;
}

/// A solver with every manual backend enabled: the `set_solver` extra
/// solver and a lemma bounding the opaque function `f`.
PureSolver solverWithAllBackends(PortfolioMode M) {
  PureSolver S;
  S.setPortfolioMode(M);
  S.enableSolver("set_solver");
  // forall k. f(k) <= 3  (an opaque app no arithmetic engine can bound).
  TermRef FK = mkApp("f", Sort::Nat, {mkVar("k", Sort::Nat)});
  Lemma L;
  L.Name = "f_bound";
  L.Prop = mkForall("k", Sort::Nat, mkLe(FK, mkNat(3)));
  L.PureLines = 2;
  S.addLemma(L);
  return S;
}

TEST(Portfolio, BitvectorBackendExtendsTheSolver) {
  // The headline capability: a word-level side condition the pre-portfolio
  // solver could not discharge is now proved automatically (Manual=false).
  TermRef W = nvar("w"), I = nvar("i");
  std::vector<TermRef> Hyps = {mkLe(W, mkNat(U32Max)), mkLt(I, mkNat(32))};
  TermRef Goal = mkLe(lor(W, pow2(I)), mkNat(U32Max));

  PureSolver Off;
  Off.setPortfolioMode(PortfolioMode::Off);
  EvarEnv E1;
  EXPECT_FALSE(Off.prove(Hyps, Goal, E1).Proved);

  PureSolver On;
  On.setPortfolioMode(PortfolioMode::On);
  EvarEnv E2;
  SolveResult R = On.prove(Hyps, Goal, E2);
  EXPECT_TRUE(R.Proved);
  EXPECT_EQ(R.Engine, "bitvector");
  EXPECT_FALSE(R.Manual);
}

TEST(Portfolio, OffMatchesOnWhereBitvectorIsIrrelevant) {
  // The modes differ only in the bit-vector step, so on every goal that
  // step is not eligible for, they agree on verdict, engine and manual bit
  // — with and without the manual backends enabled.
  std::vector<GoalCase> Battery = goalBattery();
  unsigned Compared = 0;
  for (bool AllBackends : {false, true}) {
    PureSolver On = AllBackends ? solverWithAllBackends(PortfolioMode::On)
                                : PureSolver();
    PureSolver Off = On;
    Off.setPortfolioMode(PortfolioMode::Off);
    for (size_t GI = 0; GI < Battery.size(); ++GI) {
      if (BitVectorSolver::relevant(Battery[GI].Hyps, Battery[GI].Goal))
        continue;
      EvarEnv E1, E2;
      SolveResult A = On.prove(Battery[GI].Hyps, Battery[GI].Goal, E1);
      SolveResult B = Off.prove(Battery[GI].Hyps, Battery[GI].Goal, E2);
      EXPECT_EQ(A.Proved, B.Proved) << "goal " << GI;
      EXPECT_EQ(A.Manual, B.Manual) << "goal " << GI;
      EXPECT_EQ(A.Engine, B.Engine) << "goal " << GI;
      ++Compared;
    }
  }
  EXPECT_GE(Compared, 6u) << "the battery must keep word-op-free goals";
}

TEST(Portfolio, FirstProverInPriorityOrderIsTheAttribution) {
  // default, then bitvector, then collections, then lemmas: a goal several
  // backends can close goes to the earliest one, so the automatic engines
  // win over the manual ones whenever both apply.
  TermRef W = nvar("w"), I = nvar("i"), N = nvar("n");
  PureSolver S = solverWithAllBackends(PortfolioMode::On);
  struct Case {
    std::vector<TermRef> Hyps;
    TermRef Goal;
    const char *Engine;
    bool Manual;
  };
  const Case Cases[] = {
      // Linear, and also within reach of the bit-vector backend.
      {{mkLe(W, mkNat(255))}, mkLe(land(W, mkNat(15)), land(W, mkNat(15))),
       "default", false},
      // Word-level, with lemmas and extra solvers also enabled.
      {{mkLt(I, mkNat(32))}, mkLe(pow2(I), mkNat(U32Max)), "bitvector",
       false},
      // Only the lemma closes it.
      {{mkLe(N, mkNat(7))}, mkLe(mkApp("f", Sort::Nat, {N}), mkNat(5)),
       "lemma:f_bound", true},
  };
  for (const Case &C : Cases) {
    EvarEnv Env;
    SolveResult R = S.prove(C.Hyps, C.Goal, Env);
    ASSERT_TRUE(R.Proved) << C.Engine;
    EXPECT_EQ(R.Engine, C.Engine);
    EXPECT_EQ(R.Manual, C.Manual) << C.Engine;
  }
}

TEST(Portfolio, ManualAttributionStaysDeterministicWithAllCandidates) {
  // With extra solvers and lemmas enabled, a goal only a lemma can close
  // must always be attributed to the lemma engine (Manual=true), in both
  // modes and on every repetition.
  TermRef N = nvar("n");
  std::vector<TermRef> Hyps = {mkLe(N, mkNat(7))};
  TermRef Goal = mkLe(mkApp("f", Sort::Nat, {N}), mkNat(5));
  for (PortfolioMode M : {PortfolioMode::On, PortfolioMode::Off}) {
    PureSolver S = solverWithAllBackends(M);
    for (int Round = 0; Round < 20; ++Round) {
      EvarEnv Env;
      SolveResult R = S.prove(Hyps, Goal, Env);
      ASSERT_TRUE(R.Proved) << "round " << Round;
      EXPECT_TRUE(R.Manual);
      EXPECT_EQ(R.Engine, "lemma:f_bound");
    }
  }
}

TEST(Portfolio, CopiedSolverProvesIndependently) {
  // The checker clones a per-job solver from a prototype: the clone keeps
  // the mode, extra solvers and lemmas, and clones used on several threads
  // at once all prove their goals.
  PureSolver Proto = solverWithAllBackends(PortfolioMode::On);
  PureSolver Clone = Proto;
  EXPECT_EQ(Clone.portfolioMode(), PortfolioMode::On);
  EXPECT_TRUE(Clone.solverEnabled("set_solver"));
  ASSERT_EQ(Clone.lemmas().size(), 1u);

  PureSolver Assigned;
  Assigned = Proto;
  Assigned.setPortfolioMode(PortfolioMode::Off);
  EXPECT_EQ(Proto.portfolioMode(), PortfolioMode::On);

  std::vector<std::thread> Threads;
  std::atomic<int> Ok{0};
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&Ok, Clone = Proto] () mutable {
      TermRef J = nvar("j"), N = nvar("n");
      for (int R = 0; R < 8; ++R) {
        EvarEnv E1, E2;
        if (Clone.prove({mkLt(J, mkNat(16))}, mkLe(pow2(J), mkNat(65535)), E1)
                .Proved &&
            Clone
                .prove({mkLe(N, mkNat(7))},
                       mkLe(mkApp("f", Sort::Nat, {N}), mkNat(5)), E2)
                .Proved)
          ++Ok;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ok.load(), 32);
}

} // namespace
