//===- DispatchEquivalenceTest.cpp - Indexed vs. linear dispatch ----------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch-equivalence property (DESIGN.md, "Rule dispatch & memoized
/// subsumption"): for every goal the engine processes over the full
/// case-study corpus, the discrimination index and the subsumption memo
/// must select exactly the rules the pre-index linear scan selects, so the
/// Indexed and Linear dispatch modes must produce byte-identical
/// derivations and figure-7 rule counts on all twelve case studies. The
/// backtracking baseline, the only user of lookupAll, gets the same
/// comparison on one case study. A key that under-approximates its guard —
/// or an effectful guard — fails here, on the whole corpus, not just on
/// whichever goals a unit test happens to build.
///
//===----------------------------------------------------------------------===//

#include "casestudies/CaseStudies.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"

#include <gtest/gtest.h>

using namespace rcc;
using namespace rcc::casestudies;
using namespace rcc::refinedc;

namespace {

/// Verifies a case study under the given dispatch mode (store bypassed so
/// every function actually runs through the engine), optionally as the
/// backtracking baseline.
ProgramResult runCorpus(const CaseStudy &CS,
                        lithium::RuleRegistry::DispatchMode M,
                        bool Backtracking = false) {
  rcc::DiagnosticEngine Diags;
  auto AP = front::compileSource(CS.Source, Diags);
  EXPECT_NE(AP, nullptr) << CS.Id << ": frontend failure";
  Checker C(*AP, Diags);
  EXPECT_TRUE(C.buildEnv()) << CS.Id << ": spec environment failure";
  C.setDispatchMode(M);
  VerifyOptions VO;
  VO.NoCache = true;
  VO.Backtracking = Backtracking;
  return C.verifyAll(VO);
}

/// A derivation rendered to a comparable transcript (rule names, rendered
/// judgments, and the manual-solver bit; exactly what the proof checker
/// replays), after a per-function line with the figure-7 rule counts and
/// the number of backtracked rule attempts.
std::vector<std::string> transcript(const ProgramResult &PR) {
  std::vector<std::string> Out;
  for (const FnResult &F : PR.Fns) {
    std::string Rules;
    for (const std::string &N : F.Stats.RulesUsed)
      Rules += " " + N;
    Out.push_back("fn " + F.Name + (F.Verified ? " ok" : " FAIL") +
                  " apps=" + std::to_string(F.Stats.RuleApps) +
                  " backtracked=" + std::to_string(F.BacktrackedSteps) +
                  " rules:" + Rules);
    for (const lithium::DerivStep &S : F.Deriv.Steps)
      Out.push_back(std::to_string(S.K) + "|" + S.Rule + "|" + S.Text +
                    (S.Manual ? "|manual" : ""));
  }
  return Out;
}

class DispatchEquivalence : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(DispatchEquivalence, DerivationsAreByteIdenticalAcrossModes) {
  const CaseStudy *CS = caseStudy(GetParam());
  ASSERT_NE(CS, nullptr);
  ProgramResult Idx =
      runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Indexed);
  ProgramResult Lin =
      runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Linear);
  EXPECT_EQ(transcript(Idx), transcript(Lin))
      << CS->Id << ": the index must not change what the engine does, only "
                   "how fast it finds the rule";
}

TEST_P(DispatchEquivalence, IndexPrunesWithoutScanFallbacks) {
  const CaseStudy *CS = caseStudy(GetParam());
  ASSERT_NE(CS, nullptr);
  ProgramResult Idx =
      runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Indexed);
  ProgramResult Lin =
      runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Linear);
  uint64_t IdxHits = 0, Fallbacks = 0, IdxMatches = 0, LinMatches = 0;
  for (const FnResult &F : Idx.Fns) {
    IdxHits += F.Stats.IndexHits;
    Fallbacks += F.Stats.ScanFallbacks;
    IdxMatches += F.Stats.MatchesEvals;
  }
  for (const FnResult &F : Lin.Fns)
    LinMatches += F.Stats.MatchesEvals;
  EXPECT_GT(IdxHits, 0u) << CS->Id;
  EXPECT_EQ(Fallbacks, 0u)
      << CS->Id << ": every registered rule kind is keyed well enough that "
                   "no multi-rule lookup degenerates to a full scan";
  EXPECT_LT(IdxMatches, LinMatches) << CS->Id;
}

INSTANTIATE_TEST_SUITE_P(
    AllCaseStudies, DispatchEquivalence,
    ::testing::Values("slist", "queue", "bsearch", "tsalloc", "pagealloc",
                      "bst_layered", "bst_direct", "hashmap", "mpool",
                      "spinlock", "barrier", "bitmap"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

//===----------------------------------------------------------------------===//
// The backtracking baseline selects its candidates with lookupAll, so the
// index must also reproduce the scan's full candidate lists in priority
// order: with either mode, the baseline tries the same rules in the same
// order and records the same steps.
//===----------------------------------------------------------------------===//

TEST(DispatchEquivalence, BacktrackingBaselineIsIdenticalAcrossModes) {
  const CaseStudy *CS = caseStudy("queue");
  ASSERT_NE(CS, nullptr);
  ProgramResult Idx = runCorpus(
      *CS, lithium::RuleRegistry::DispatchMode::Indexed, /*Backtracking=*/true);
  ProgramResult Lin = runCorpus(
      *CS, lithium::RuleRegistry::DispatchMode::Linear, /*Backtracking=*/true);
  unsigned Backtracked = 0;
  for (const FnResult &F : Idx.Fns)
    Backtracked += F.BacktrackedSteps;
  EXPECT_GT(Backtracked, 0u) << "the baseline must exercise rollback";
  EXPECT_EQ(transcript(Idx), transcript(Lin));
}

//===----------------------------------------------------------------------===//
// The acceptance ratio: Matches evaluations per rule application drop >= 5x
// on the heavy rows (hashmap, both BSTs), measured per row, not amortized.
//===----------------------------------------------------------------------===//

TEST(DispatchEquivalence, HeavyRowsSeeAFivefoldGuardReduction) {
  for (const char *Id : {"hashmap", "bst_layered", "bst_direct"}) {
    const CaseStudy *CS = caseStudy(Id);
    ASSERT_NE(CS, nullptr);
    ProgramResult Idx =
        runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Indexed);
    ProgramResult Lin =
        runCorpus(*CS, lithium::RuleRegistry::DispatchMode::Linear);
    uint64_t IdxMatches = 0, LinMatches = 0;
    for (const FnResult &F : Idx.Fns)
      IdxMatches += F.Stats.MatchesEvals;
    for (const FnResult &F : Lin.Fns)
      LinMatches += F.Stats.MatchesEvals;
    ASSERT_GT(IdxMatches, 0u) << Id;
    EXPECT_GE(static_cast<double>(LinMatches) /
                  static_cast<double>(IdxMatches),
              5.0)
        << Id << ": linear=" << LinMatches << " indexed=" << IdxMatches;
  }
}
