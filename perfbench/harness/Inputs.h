//===- Inputs.h - Seeded inputs of the verifier benchmark -------*- C++ -*-===//
///
/// \file
/// Everything a workload feeds the verifier is built here from the seed:
/// the Figure-7 corpus schedule, the synthetic monorepo translation unit,
/// and the whitespace edits of the warm edit loop. Each input carries the
/// verdicts it must produce, known from how it was built.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: small, seedable and identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N) for N > 0 (rejection sampling, no modulo bias).
  uint64_t below(uint64_t N);

private:
  uint64_t S;
};

/// FNV-1a, chained through \p H.
uint64_t fnv1a(std::string_view Data, uint64_t H = 14695981039346656037ull);

/// A seeded permutation of 0..N-1.
std::vector<size_t> permutation(Rng &R, size_t N);

/// One translation unit handed to one simulated tool invocation.
struct Unit {
  std::string Id;
  std::string Source;
  std::vector<std::string> Fns; ///< functions to verify, in order
  /// Expected verdict per entry of Fns (true = must verify).
  std::vector<bool> Expect;
};

/// The Figure-7 case studies, one unit each; every function must verify.
std::vector<Unit> figure7Corpus();

/// The synthetic monorepo: \p Functions annotated functions in the three
/// body shapes of the verifier's fleet generator (constant offset, chained
/// locals, branch). The seed picks each function's shape and constants, the
/// failing share (4% to 8%) and which functions fail; a failing function's
/// body computes one more than its spec promises.
Unit generateMonorepo(uint64_t Seed, unsigned Functions);

/// Where the warm edit loop may insert whitespace: lines strictly inside a
/// function body (after the line of its opening brace, before the line of
/// its closing brace) that are indented and start with an identifier or
/// keyword. Such a line holds a statement whose source location the
/// verifier's content hash covers, so indenting it must re-verify exactly
/// that function; lines of only braces or of continued annotation strings
/// do not move any hashed location.
struct EditSite {
  size_t UnitIdx = 0;
  size_t FnIdx = 0;
  std::vector<unsigned> Lines; ///< 1-based
};

/// Finds the edit sites of every function of \p Units by compiling each
/// unit once. Returns false (with \p Err) when a unit does not compile or a
/// function has no eligible line.
bool findEditSites(const std::vector<Unit> &Units, std::vector<EditSite> &Out,
                   std::string &Err);

/// Inserts (\p Indent) or removes one space at the start of 1-based line
/// \p Line of \p Source; removal expects the line to start with a space.
/// The edit preserves semantics and the line count, and changes only the
/// columns of that line.
void toggleIndent(std::string &Source, unsigned Line, bool Indent);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
