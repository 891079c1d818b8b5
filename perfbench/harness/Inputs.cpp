//===- Inputs.cpp - Seeded inputs of the verifier benchmark ---------------===//

#include "Inputs.h"

#include "casestudies/CaseStudies.h"
#include "frontend/Frontend.h"

#include <cctype>
#include <cstdio>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t Rng::below(uint64_t N) {
  const uint64_t Limit = ~0ull - (~0ull % N);
  uint64_t V;
  do
    V = next();
  while (V >= Limit);
  return V % N;
}

uint64_t perfbench::fnv1a(std::string_view Data, uint64_t H) {
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::vector<size_t> perfbench::permutation(Rng &R, size_t N) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

std::vector<Unit> perfbench::figure7Corpus() {
  std::vector<Unit> Out;
  for (const rcc::casestudies::CaseStudy &CS :
       rcc::casestudies::allCaseStudies())
    Out.push_back({CS.Id, CS.Source, CS.Functions,
                   std::vector<bool>(CS.Functions.size(), true)});
  return Out;
}

Unit perfbench::generateMonorepo(uint64_t Seed, unsigned Functions) {
  Rng R(Seed ^ 0x6d6f6e6f7265706full);
  Unit U;
  U.Id = "monorepo";
  U.Expect.assign(Functions, true);
  // The failing share, then which functions fail.
  const uint64_t PerMille = 40 + R.below(41);
  const size_t FailCount = (Functions * PerMille + 500) / 1000;
  std::vector<size_t> Order = permutation(R, Functions);
  for (size_t I = 0; I < FailCount && I < Functions; ++I)
    U.Expect[Order[I]] = false;

  U.Source = "// Synthetic annotated monorepo (perfbench), " +
             std::to_string(Functions) + " functions.\n";
  char Buf[640];
  for (unsigned I = 0; I < Functions; ++I) {
    char Name[32];
    snprintf(Name, sizeof(Name), "mono_%05u", I);
    U.Fns.push_back(Name);
    const unsigned Shape = static_cast<unsigned>(R.below(3));
    const unsigned K = 1 + static_cast<unsigned>(R.below(13));
    const unsigned Bound = 900 + static_cast<unsigned>(R.below(97));
    // A failing body returns one more than the spec promises on a path the
    // requires clause keeps reachable.
    const unsigned Off = U.Expect[I] ? 0 : 1;
    switch (Shape) {
    case 0:
      // Constant offset: one addition, one range side condition.
      snprintf(Buf, sizeof(Buf),
               "[[rc::parameters(\"n: nat\")]]\n"
               "[[rc::args(\"n @ int<u32>\")]]\n"
               "[[rc::returns(\"{n + %u} @ int<u32>\")]]\n"
               "[[rc::requires(\"{n <= %u}\")]]\n"
               "unsigned int %s(unsigned int x) { return x + %u; }\n\n",
               K, Bound, Name, K + Off);
      break;
    case 1:
      // Chained additions through a local: assignment + two range checks.
      snprintf(Buf, sizeof(Buf),
               "[[rc::parameters(\"n: nat\")]]\n"
               "[[rc::args(\"n @ int<u32>\")]]\n"
               "[[rc::returns(\"{n + %u} @ int<u32>\")]]\n"
               "[[rc::requires(\"{n <= %u}\")]]\n"
               "unsigned int %s(unsigned int x) {\n"
               "  unsigned int y = x + %u;\n"
               "  return y + %u;\n"
               "}\n\n",
               2 * K, Bound, Name, K, K + Off);
      break;
    default:
      // Branch on a comparison: conditional typing + join. The passing
      // variant only promises an int; the failing one promises n + K and
      // breaks it on the x >= Bound path, which n == Bound reaches.
      if (Off == 0)
        snprintf(Buf, sizeof(Buf),
                 "[[rc::parameters(\"n: nat\")]]\n"
                 "[[rc::args(\"n @ int<u32>\")]]\n"
                 "[[rc::returns(\"int<u32>\")]]\n"
                 "[[rc::requires(\"{n <= %u}\")]]\n"
                 "unsigned int %s(unsigned int x) {\n"
                 "  if (x < %u) { return x + %u; }\n"
                 "  return x;\n"
                 "}\n\n",
                 Bound, Name, Bound, K);
      else
        snprintf(Buf, sizeof(Buf),
                 "[[rc::parameters(\"n: nat\")]]\n"
                 "[[rc::args(\"n @ int<u32>\")]]\n"
                 "[[rc::returns(\"{n + %u} @ int<u32>\")]]\n"
                 "[[rc::requires(\"{n <= %u}\")]]\n"
                 "unsigned int %s(unsigned int x) {\n"
                 "  if (x < %u) { return x + %u; }\n"
                 "  return x + %u;\n"
                 "}\n\n",
                 K, Bound, Name, Bound, K, K + 1);
      break;
    }
    U.Source += Buf;
  }
  return U;
}

namespace {

/// Offset of the first character of 1-based line \p Line, or npos.
size_t lineOffset(const std::string &S, unsigned Line) {
  size_t Off = 0;
  for (unsigned L = 1; L < Line; ++L) {
    Off = S.find('\n', Off);
    if (Off == std::string::npos)
      return Off;
    ++Off;
  }
  return Off;
}

} // namespace

bool perfbench::findEditSites(const std::vector<Unit> &Units,
                              std::vector<EditSite> &Out, std::string &Err) {
  Out.clear();
  for (size_t UI = 0; UI < Units.size(); ++UI) {
    const Unit &U = Units[UI];
    rcc::DiagnosticEngine Diags;
    auto AP = rcc::front::compileSource(U.Source, Diags);
    if (!AP) {
      Err = "unit '" + U.Id + "' does not compile";
      return false;
    }
    for (size_t FI = 0; FI < U.Fns.size(); ++FI) {
      auto It = AP->Fns.find(U.Fns[FI]);
      if (It == AP->Fns.end() || !It->second.HasBody) {
        Err = "function '" + U.Fns[FI] + "' has no body";
        return false;
      }
      const rcc::front::FnInfo &Info = It->second;
      // The body opens at the first '{' after the parameter list's ')'.
      size_t P = lineOffset(U.Source, Info.NameRange.End.Line);
      if (P == std::string::npos) {
        Err = "bad location for '" + U.Fns[FI] + "'";
        return false;
      }
      P += Info.NameRange.End.Col > 0 ? Info.NameRange.End.Col - 1 : 0;
      P = U.Source.find('(', P);
      int Depth = 0;
      for (; P < U.Source.size(); ++P) {
        if (U.Source[P] == '(')
          ++Depth;
        else if (U.Source[P] == ')' && --Depth == 0)
          break;
      }
      P = U.Source.find('{', P);
      if (P == std::string::npos) {
        Err = "no body brace for '" + U.Fns[FI] + "'";
        return false;
      }
      unsigned OpenLine = 1;
      for (size_t I = 0; I < P; ++I)
        OpenLine += U.Source[I] == '\n';
      EditSite Site;
      Site.UnitIdx = UI;
      Site.FnIdx = FI;
      for (unsigned L = OpenLine + 1; L < Info.Range.End.Line; ++L) {
        size_t Off = lineOffset(U.Source, L);
        size_t End = U.Source.find('\n', Off);
        std::string_view Text(U.Source.data() + Off,
                              (End == std::string::npos ? U.Source.size()
                                                        : End) -
                                  Off);
        const size_t First = Text.find_first_not_of(" \t");
        if (First > 0 && First != std::string_view::npos &&
            (std::isalpha(static_cast<unsigned char>(Text[First])) ||
             Text[First] == '_'))
          Site.Lines.push_back(L);
      }
      if (Site.Lines.empty()) {
        Err = "no editable body line in '" + U.Fns[FI] + "'";
        return false;
      }
      Out.push_back(std::move(Site));
    }
  }
  return true;
}

void perfbench::toggleIndent(std::string &Source, unsigned Line,
                             bool Indent) {
  size_t Off = lineOffset(Source, Line);
  if (Off == std::string::npos)
    return;
  if (Indent)
    Source.insert(Off, 1, ' ');
  else if (Source[Off] == ' ')
    Source.erase(Off, 1);
}
