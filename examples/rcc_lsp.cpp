//===- rcc_lsp.cpp - The RefinedC++ language server -----------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `rcc-lsp` speaks the Language Server Protocol over stdio: editors open
/// annotated C files, the server verifies them through the daemon's
/// workspace (sharing one in-memory result tier across saves, so a save
/// only re-runs proof search for the functions whose verification problem
/// changed), and failures come back as `publishDiagnostics` with real
/// source ranges. See README.md, "Editor integration". Flags:
///
///   --cache-dir=DIR      persist results under DIR (warm restarts)
///   --cache-max-bytes=N  GC budget for DIR
///   --jobs=N             concurrent verification jobs (0 = all cores)
///   --no-recheck         skip the replay of freshly searched derivations
///                        (--cache-dir hits are replayed regardless)
///   --version            print the version and exit
///
/// Exit code 0 iff the client performed the shutdown/exit handshake in
/// order (LSP: `exit` before `shutdown` must exit with 1).
///
//===----------------------------------------------------------------------===//

#include "lsp/LspServer.h"
#include "support/Options.h"
#include "support/Util.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace rcc;

int main(int argc, char **argv) {
  lsp::LspOptions O;

  opts::OptionParser P("rcc-lsp", "");
  P.strOpt("cache-dir", O.CacheDir, "persistent result store directory")
      .u64Opt("cache-max-bytes", O.CacheMaxBytes, "GC budget for the cache")
      .unsignedOpt("jobs", O.Jobs, "concurrent verification jobs (0 = cores)")
      .flag("no-recheck", O.Recheck, false,
            "skip the replay of freshly searched derivations")
      .version();

  std::vector<std::string> Pos;
  switch (P.parse(argc, argv, Pos)) {
  case opts::ParseResult::Version:
    printf("%s\n", versionString());
    return 0;
  case opts::ParseResult::Error:
    fprintf(stderr, "error: unknown or malformed option '%s'\n%s\n",
            P.error().c_str(), P.usage().c_str());
    return 2;
  case opts::ParseResult::Ok:
    break;
  }
  if (!Pos.empty()) {
    fprintf(stderr, "error: rcc-lsp takes no positional arguments\n%s\n",
            P.usage().c_str());
    return 2;
  }

  // stdout carries framed protocol bytes only; never mix in C stdio.
  std::ios::sync_with_stdio(false);
  lsp::LspServer Server(std::move(O));
  return Server.run(std::cin, std::cout);
}
