//===- DaemonTest.cpp - verifyd daemon and debug-log contracts ------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contracts of the verification daemon (DESIGN.md, "Verification daemon"):
/// the JSON-lines protocol over handleLine/runStdio/runSocket, hostile
/// (deeply nested) saves answered with an error event, the incremental
/// revision model (editing one function re-verifies exactly that function),
/// L2 warm starts across daemon restarts, GC honoring the cache byte
/// budget — plus the mutex-guarded RCC_TRACE debug log the daemon's
/// parallel revisions depend on.
///
/// NOTE: the first test sets RCC_TRACE before anything queries
/// debugTraceLevel(), which caches the environment once per process; gtest
/// runs tests of one file in declaration order, so keep it first.
///
//===----------------------------------------------------------------------===//

#include "daemon/Daemon.h"
#include "support/Socket.h"
#include "support/Util.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <unistd.h>

using namespace rcc;
using namespace rcc::daemon;

namespace fs = std::filesystem;

namespace {

/// A self-deleting unique temp directory per test.
struct TempDir {
  fs::path Path;
  TempDir() {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("rcc_daemon_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
};

/// Two annotated functions; editing kEditedSecond changes only `idB` (same
/// line/column layout, so `idA`'s body and source locations are
/// untouched and its content hash — and L1 entry — stay valid).
const char *kTwoFns = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idA(int x) { return x; }
[[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idB(int x) { return x; }
)";
const char *kEditedSecond = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idA(int x) { return x; }
[[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idB(int x) { int y = x; return y; }
)";

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
}

/// Collects emitted events and answers simple queries about them.
struct Events {
  std::vector<std::string> Lines;
  EventSink sink() {
    return [this](const std::string &L) { Lines.push_back(L); };
  }
  /// The last line containing \p Needle ("" if none).
  std::string last(const std::string &Needle) const {
    for (auto It = Lines.rbegin(); It != Lines.rend(); ++It)
      if (It->find(Needle) != std::string::npos)
        return *It;
    return "";
  }
  size_t count(const std::string &Needle) const {
    size_t N = 0;
    for (const std::string &L : Lines)
      N += L.find(Needle) != std::string::npos;
    return N;
  }
};

/// Extracts the unsigned value of `"key": N` from an event line (or -1).
long long field(const std::string &Line, const std::string &Key) {
  std::string Pat = "\"" + Key + "\": ";
  size_t P = Line.find(Pat);
  if (P == std::string::npos)
    return -1;
  return atoll(Line.c_str() + P + Pat.size());
}

} // namespace

//===----------------------------------------------------------------------===//
// RCC_TRACE debug log (keep first: debugTraceLevel caches the env once)
//===----------------------------------------------------------------------===//

TEST(DebugLog, TraceLevelParsingAndConcurrentLines) {
  ::setenv("RCC_TRACE", "1", 1);
  EXPECT_EQ(debugTraceLevel(), 1) << "cached from the env set above";

  // Hammer the log from several threads; the process-wide mutex guarantees
  // whole lines (the raw fprintf it replaced interleaved under --jobs>1).
  // Silence stderr for the duration so test output stays readable.
  fflush(stderr);
  int SavedErr = dup(2);
  ASSERT_GE(SavedErr, 0);
  FILE *Null = fopen("/dev/null", "w");
  ASSERT_TRUE(Null != nullptr);
  dup2(fileno(Null), 2);

  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([T] {
      for (int I = 0; I < 50; ++I)
        debugLog("debuglog-test thread " + std::to_string(T) + " line " +
                 std::to_string(I));
    });
  for (std::thread &T : Threads)
    T.join();

  fflush(stderr);
  dup2(SavedErr, 2);
  close(SavedErr);
  fclose(Null);
}

TEST(DebugLog, EngineRunsUnderTraceEnv) {
  // With RCC_TRACE=1 cached as level 1 above, a parallel daemon revision
  // exercises the engine's debug-log path; it must still verify cleanly.
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  fflush(stderr);
  int SavedErr = dup(2);
  ASSERT_GE(SavedErr, 0);
  FILE *Null = fopen("/dev/null", "w");
  ASSERT_TRUE(Null != nullptr);
  dup2(fileno(Null), 2);

  DaemonOptions O;
  O.Path = Src;
  O.Jobs = 4;
  Daemon D(O);
  Events E;
  EXPECT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  fflush(stderr);
  dup2(SavedErr, 2);
  close(SavedErr);
  fclose(Null);

  EXPECT_TRUE(D.lastAllVerified());
}

//===----------------------------------------------------------------------===//
// Revision model: edit -> re-verify exactly the changed function
//===----------------------------------------------------------------------===//

TEST(Daemon, ColdStartVerifiesEverything) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  EXPECT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_TRUE(D.lastAllVerified());

  std::string Done = E.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "functions"), 2);
  EXPECT_EQ(field(Done, "reverified"), 2);
  EXPECT_EQ(field(Done, "cached"), 0);
  EXPECT_NE(Done.find("\"all_verified\": true"), std::string::npos);
  EXPECT_EQ(E.count("\"event\": \"diagnostic\""), 2u);
}

TEST(Daemon, EditReverifiesExactlyTheChangedFunction) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));

  // An unchanged forced check is not a revision but still gets a reply.
  Events Same;
  EXPECT_FALSE(D.checkOnce(Same.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_FALSE(Same.last("\"event\": \"unchanged\"").empty());

  // Edit the second function in place: exactly one function re-verifies,
  // the other is a warm L1 hit.
  writeFile(Src, kEditedSecond);
  Events Edit;
  EXPECT_TRUE(D.checkOnce(Edit.sink(), /*Force=*/true));
  EXPECT_EQ(D.revision(), 2u);
  std::string Done = Edit.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "reverified"), 1);
  EXPECT_EQ(field(Done, "cached"), 1);
  EXPECT_EQ(field(Done, "l1_hits"), 1);
  EXPECT_NE(Done.find("\"all_verified\": true"), std::string::npos);

  std::string DiagB = Edit.last("\"fn\": \"idB\"");
  ASSERT_FALSE(DiagB.empty());
  EXPECT_NE(DiagB.find("\"cached\": false"), std::string::npos);
  std::string DiagA = Edit.last("\"fn\": \"idA\"");
  ASSERT_FALSE(DiagA.empty());
  EXPECT_NE(DiagA.find("\"cached\": true"), std::string::npos);
}

TEST(Daemon, TouchWithoutEditIsNotARevision) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  // Rewriting identical bytes bumps the mtime; the content hash must stop
  // the watch tick from spending a revision on it.
  writeFile(Src, kTwoFns);
  Events Tick;
  EXPECT_FALSE(D.checkOnce(Tick.sink(), /*Force=*/false));
  EXPECT_EQ(D.revision(), 1u);
  EXPECT_TRUE(Tick.Lines.empty()) << "watch ticks are silent on no change";
}

TEST(Daemon, CompileErrorKeepsServingPreviousRevision) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  writeFile(Src, "int broken( { return 0; }\n");
  Events Bad;
  EXPECT_TRUE(D.checkOnce(Bad.sink(), /*Force=*/true));
  EXPECT_FALSE(D.lastAllVerified());
  EXPECT_FALSE(Bad.last("\"event\": \"error\"").empty());

  // Fixing the file verifies again; the pre-error results are still warm.
  writeFile(Src, kTwoFns);
  Events Fixed;
  EXPECT_TRUE(D.checkOnce(Fixed.sink(), /*Force=*/true));
  EXPECT_TRUE(D.lastAllVerified());
  std::string Done = Fixed.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done, "l1_hits"), 2) << "unchanged bodies stay warm "
                                          "across a broken intermediate "
                                          "revision";
}

TEST(Daemon, DeeplyNestedSaveIsAnErrorAndPreviousRevisionKeepsServing) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  // Hostile saves: nesting that used to overflow the stack and kill the
  // daemon, in the C source and in an rc:: spec string.
  const std::string Deep(100000, '(');
  const std::string Close(100000, ')');
  std::string Own;
  for (int I = 0; I < 100000; ++I)
    Own += "&own<";
  const std::vector<std::string> Saves = {
      "int f(int a) {\n  return " + Deep + "a" + Close + ";\n}\n",
      "[[rc::args(\"" + Own + "int<i32>" + std::string(100000, '>') +
          "\")]]\nint f(int *p) { return 0; }\n"};
  for (const std::string &Save : Saves) {
    writeFile(Src, Save);
    Events Bad;
    EXPECT_TRUE(D.checkOnce(Bad.sink(), /*Force=*/true));
    std::string Err = Bad.last("\"event\": \"error\"");
    EXPECT_NE(Err.find("nesting too deep"), std::string::npos)
        << Err.substr(0, 300);
    EXPECT_GT(field(Err, "line"), 0) << "the error is located";

    // The previous good revision keeps serving requests.
    Events St;
    EXPECT_TRUE(D.handleLine("status", St.sink()));
    EXPECT_EQ(field(St.last("\"event\": \"status\""), "functions"), 2);
  }

  writeFile(Src, kTwoFns);
  Events Fixed;
  EXPECT_TRUE(D.checkOnce(Fixed.sink(), /*Force=*/true));
  EXPECT_TRUE(D.lastAllVerified());
}

//===----------------------------------------------------------------------===//
// Restart -> L2 warm start; GC honors the byte budget
//===----------------------------------------------------------------------===//

TEST(Daemon, RestartServesUnchangedFunctionsFromReplayedL2) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  O.CacheDir = Dir.str() + "/cache";
  {
    Daemon D(O);
    Events E;
    ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
    ASSERT_TRUE(D.lastAllVerified());
  }

  // A fresh daemon (cold L1) on the same cache dir: everything is an L2
  // hit, replayed through the proof checker before being trusted.
  Daemon D2(O);
  Events E2;
  ASSERT_TRUE(D2.checkOnce(E2.sink(), /*Force=*/true));
  EXPECT_TRUE(D2.lastAllVerified());
  std::string Done = E2.last("\"event\": \"revision_done\"");
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(field(Done, "reverified"), 0);
  EXPECT_EQ(field(Done, "l2_hits"), 2);
  EXPECT_EQ(field(Done, "replayed"), 2);
}

TEST(Daemon, GcHonorsCacheMaxBytes) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  O.CacheDir = Dir.str() + "/cache";
  O.CacheMaxBytes = 1; // every entry is bigger than this
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));
  ASSERT_TRUE(D.l2() != nullptr);
  EXPECT_LE(D.l2()->sizeBytes(), O.CacheMaxBytes);
  std::string Gc = E.last("\"event\": \"gc\"");
  ASSERT_FALSE(Gc.empty());
  EXPECT_EQ(field(Gc, "evicted"), 2);
  EXPECT_EQ(field(Gc, "max_bytes"), 1);
}

//===----------------------------------------------------------------------===//
// Protocol: handleLine and the stdio transport
//===----------------------------------------------------------------------===//

TEST(Daemon, HandleLineProtocol) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  Events R;
  EXPECT_TRUE(D.handleLine("status", R.sink()));
  std::string St = R.last("\"event\": \"status\"");
  ASSERT_FALSE(St.empty());
  EXPECT_EQ(field(St, "functions"), 2);
  EXPECT_NE(St.find("\"all_verified\": true"), std::string::npos);

  EXPECT_TRUE(D.handleLine("check", R.sink()));
  EXPECT_FALSE(R.last("\"event\": \"unchanged\"").empty());

  EXPECT_TRUE(D.handleLine("", R.sink())) << "blank lines are ignored";
  EXPECT_TRUE(D.handleLine("bogus", R.sink()));
  EXPECT_NE(R.last("\"event\": \"error\"").find("unknown command"),
            std::string::npos);

  EXPECT_FALSE(D.handleLine("shutdown", R.sink()));
  EXPECT_FALSE(D.handleLine("quit", R.sink()));
}

TEST(Daemon, StdioRoundTrip) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::istringstream In("status\ncheck\nshutdown\n");
  std::ostringstream Out;
  EXPECT_EQ(D.runStdio(In, Out), 0);

  std::string Log = Out.str();
  EXPECT_NE(Log.find("\"event\": \"revision_done\""), std::string::npos)
      << "cold start verifies before serving requests";
  EXPECT_NE(Log.find("\"event\": \"status\""), std::string::npos);
  EXPECT_NE(Log.find("\"event\": \"unchanged\""), std::string::npos);
  EXPECT_NE(Log.find("\"event\": \"shutdown\""), std::string::npos);
}

TEST(Daemon, StdioExitCodeReflectsVerdict) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  // A function whose spec cannot hold: returns claims x+1 but body returns x.
  writeFile(Src, R"([[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x; }
)");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::istringstream In("shutdown\n");
  std::ostringstream Out;
  EXPECT_EQ(D.runStdio(In, Out), 1);
  EXPECT_NE(Out.str().find("\"verified\": false"), std::string::npos);
  EXPECT_NE(Out.str().find("\"all_verified\": false"), std::string::npos);
}

namespace {
/// Reads lines from \p Fd into \p Lines until one contains \p Needle
/// (returned) or \p TimeoutMs passes without progress ("" then).
std::string readUntil(int Fd, std::string &Buf,
                      std::vector<std::string> &Lines,
                      const std::string &Needle, int TimeoutMs = 30000) {
  for (;;) {
    size_t NL;
    while ((NL = Buf.find('\n')) != std::string::npos) {
      Lines.push_back(Buf.substr(0, NL));
      Buf.erase(0, NL + 1);
      if (Lines.back().find(Needle) != std::string::npos)
        return Lines.back();
    }
    struct pollfd PFD = {Fd, POLLIN, 0};
    if (poll(&PFD, 1, TimeoutMs) <= 0)
      return "";
    char Chunk[4096];
    ssize_t N = read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      return "";
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}
} // namespace

TEST(Daemon, SocketServesOneLineProtocol) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);
  std::string Sock = Dir.str() + "/d.sock";

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Daemon::resetShutdownFlag();
  int Ret = -1;
  std::thread Server([&] { Ret = D.runSocket(Sock); });

  // The socket appears once the cold-start revision is done.
  int Fd = -1;
  for (int I = 0; I < 3000 && Fd < 0; ++I) {
    std::string Err;
    Fd = net::connectUnix(Sock, &Err);
    if (Fd < 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(Fd, 0);
  std::string Buf;
  std::vector<std::string> Lines;

  ASSERT_TRUE(net::sendLineBlocking(Fd, "check"));
  EXPECT_NE(readUntil(Fd, Buf, Lines, "\"event\": \"unchanged\""), "");

  // A JSON request line (the shape other protocol generations use) is an
  // unknown command like any other, and the connection stays usable.
  ASSERT_TRUE(net::sendLineBlocking(Fd, "{\"rcc\": \"hello\", \"v\": 2}"));
  std::string Err = readUntil(Fd, Buf, Lines, "\"event\": \"error\"");
  EXPECT_NE(Err.find("unknown command"), std::string::npos) << Err;

  ASSERT_TRUE(net::sendLineBlocking(Fd, "status"));
  std::string St = readUntil(Fd, Buf, Lines, "\"event\": \"status\"");
  EXPECT_EQ(field(St, "functions"), 2);
  EXPECT_NE(St.find("\"all_verified\": true"), std::string::npos);

  ASSERT_TRUE(net::sendLineBlocking(Fd, "shutdown"));
  EXPECT_NE(readUntil(Fd, Buf, Lines, "\"event\": \"shutdown\""), "");
  Server.join();
  close(Fd);
  EXPECT_EQ(Ret, 0);
  EXPECT_FALSE(fs::exists(Sock)) << "the socket file is removed on exit";
}

//===----------------------------------------------------------------------===//
// Workspace: several documents over shared tiers, overlays, typed events
//===----------------------------------------------------------------------===//

/// A third function, so the second workspace document has its own keys.
const char *kThirdFn = R"([[rc::args("int<i32>")]]
[[rc::returns("int<i32>")]]
int idC(int x) { return x; }
)";

TEST(Workspace, EditingOneFileReverifiesOnlyThatFilesChangedFunctions) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  std::string B = Dir.str() + "/b.c";
  writeFile(A, kTwoFns);
  writeFile(B, kThirdFn);

  DaemonOptions O;
  O.Path = A;
  O.Paths.push_back(B);
  Daemon D(O);
  EXPECT_EQ(D.documents().size(), 2u);

  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));
  EXPECT_TRUE(D.lastAllVerified());
  EXPECT_EQ(Cold.count("\"event\": \"revision_done\""), 2u)
      << "one revision per document";

  // Edit only the first document: the second must stay silent on the watch
  // tick, and the first re-verifies exactly its changed function.
  writeFile(A, kEditedSecond);
  Events Tick;
  ASSERT_TRUE(D.checkOnce(Tick.sink(), /*Force=*/false));
  EXPECT_EQ(Tick.count("\"event\": \"revision_done\""), 1u);
  std::string Done = Tick.last("\"event\": \"revision_done\"");
  EXPECT_NE(Done.find("\"file\": \"" + A + "\""), std::string::npos);
  EXPECT_EQ(field(Done, "reverified"), 1);
  EXPECT_EQ(field(Done, "l1_hits"), 1);
  EXPECT_EQ(D.documentRevision(A), 2u);
  EXPECT_EQ(D.documentRevision(B), 1u);
}

TEST(Workspace, PerDocumentResultsAndStatus) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  std::string B = Dir.str() + "/b.c";
  writeFile(A, kTwoFns);
  writeFile(B, kThirdFn);

  DaemonOptions O;
  O.Path = A;
  O.Paths.push_back(B);
  Daemon D(O);
  Events E;
  ASSERT_TRUE(D.checkOnce(E.sink(), /*Force=*/true));

  ASSERT_TRUE(D.result(A) != nullptr);
  ASSERT_TRUE(D.result(B) != nullptr);
  EXPECT_EQ(D.result(A)->Fns.size(), 2u);
  EXPECT_EQ(D.result(B)->Fns.size(), 1u);
  EXPECT_TRUE(D.result("/no/such/doc") == nullptr);

  Events S;
  EXPECT_TRUE(D.handleLine("status", S.sink()));
  EXPECT_EQ(S.count("\"event\": \"status\""), 2u) << "status is per-document";
}

TEST(Workspace, OverlayShadowsDiskAndClearRestoresIt) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, kTwoFns);

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  Events Cold;
  ASSERT_TRUE(D.checkOnce(Cold.sink(), /*Force=*/true));
  ASSERT_TRUE(D.lastAllVerified());

  // An editor buffer takes precedence over the file's bytes.
  D.setOverlay(Src, kEditedSecond);
  EXPECT_TRUE(D.hasOverlay(Src));
  Events Ed;
  StructuredSink Sink = [&Ed](const Event &E) {
    Ed.Lines.push_back(E.toJsonLine());
  };
  ASSERT_TRUE(D.checkDocument(Src, Sink));
  std::string Done = Ed.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done, "reverified"), 1) << "only idB changed in the buffer";
  EXPECT_EQ(field(Done, "l1_hits"), 1);

  // While the overlay is installed, touching the file is not a revision.
  writeFile(Src, kThirdFn);
  Events Tick;
  EXPECT_FALSE(D.checkOnce(Tick.sink(), /*Force=*/false))
      << "the editor owns the content";

  // Dropping the overlay hands authority back to the (new) file content.
  EXPECT_TRUE(D.clearOverlay(Src));
  EXPECT_FALSE(D.hasOverlay(Src));
  Events After;
  ASSERT_TRUE(D.checkOnce(After.sink(), /*Force=*/true));
  std::string Done2 = After.last("\"event\": \"revision_done\"");
  EXPECT_EQ(field(Done2, "functions"), 1) << "now verifying kThirdFn";
}

TEST(Workspace, AddRemoveDocumentsDynamically) {
  TempDir Dir;
  std::string A = Dir.str() + "/a.c";
  writeFile(A, kTwoFns);

  DaemonOptions O; // no initial path: the LSP server's configuration
  Daemon D(O);
  EXPECT_TRUE(D.documents().empty());
  EXPECT_FALSE(D.lastAllVerified()) << "an empty workspace verifies nothing";
  EXPECT_FALSE(D.addDocument(""));

  Events E;
  StructuredSink Sink = [&E](const Event &Ev) {
    E.Lines.push_back(Ev.toJsonLine());
  };
  ASSERT_TRUE(D.checkDocument(A, Sink));
  EXPECT_EQ(D.documents().size(), 1u);
  EXPECT_TRUE(D.lastAllVerified());

  EXPECT_TRUE(D.removeDocument(A));
  EXPECT_FALSE(D.removeDocument(A));
  EXPECT_TRUE(D.documents().empty());
}

TEST(Workspace, CompileErrorEventCarriesSourceLocation) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  // The parse error is on line 2 of the file.
  writeFile(Src, "int ok(void) { return 0; }\nint broken( { return 0; }\n");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);

  std::vector<Event> Typed;
  StructuredSink Sink = [&Typed](const Event &E) { Typed.push_back(E); };
  ASSERT_TRUE(D.checkOnce(Sink, /*Force=*/true));

  ASSERT_EQ(Typed.size(), 1u);
  EXPECT_EQ(Typed[0].Kind, EventKind::Error);
  EXPECT_EQ(Typed[0].File, Src);
  EXPECT_TRUE(Typed[0].Diag.Loc.isValid())
      << "frontend location must survive into the typed event";
  EXPECT_EQ(Typed[0].Diag.Loc.Line, 2u);
  // And the rendered JSON line exposes it to the line protocol too.
  std::string L = Typed[0].toJsonLine();
  EXPECT_NE(L.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(L.find("\"file\": \"" + Src + "\""), std::string::npos);
}

TEST(Workspace, DiagnosticEventsCarryTheUnifiedWireDiagnostic) {
  TempDir Dir;
  std::string Src = Dir.str() + "/t.c";
  writeFile(Src, R"([[rc::parameters("n: nat")]]
[[rc::args("n @ int<u32>")]]
[[rc::returns("{n + 1} @ int<u32>")]]
[[rc::requires("{n <= 100}")]]
unsigned int inc(unsigned int x) { return x; }
)");

  DaemonOptions O;
  O.Path = Src;
  Daemon D(O);
  std::vector<Event> Typed;
  StructuredSink Sink = [&Typed](const Event &E) { Typed.push_back(E); };
  ASSERT_TRUE(D.checkOnce(Sink, /*Force=*/true));

  const Event *Fail = nullptr;
  for (const Event &E : Typed)
    if (E.Kind == EventKind::Diagnostic && !E.Verified)
      Fail = &E;
  ASSERT_TRUE(Fail != nullptr);
  EXPECT_EQ(Fail->Diag.Fn, "inc");
  EXPECT_EQ(Fail->Diag.File, Src);
  EXPECT_FALSE(Fail->Diag.Message.empty());
  EXPECT_TRUE(Fail->Diag.Loc.isValid())
      << "failures anchor at the error or the function name";
  // The JSON-lines rendering embeds Diagnostic::toJson() verbatim — the
  // same bytes verify_tool --format=json prints for this failure.
  std::string L = Fail->toJsonLine();
  EXPECT_NE(L.find("\"diagnostic\": " + Fail->Diag.toJson()),
            std::string::npos);
  EXPECT_NE(L.find("\"severity\": \"error\""), std::string::npos);
}
