//===- Daemon.h - Long-lived verification server (verifyd) -----*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verification daemon behind `verifyd` and `rcc-lsp` (DESIGN.md,
/// "Verification daemon" / "LSP server"). A Daemon owns a *workspace* of
/// watched documents and a pair of store tiers that outlive any single
/// compile: the in-memory L1 stays warm across *revisions* of every
/// document (each revision is a fresh frontend compile and a fresh Checker
/// session sharing the tiers via Checker::adoptTierStack), and the
/// optional disk L2 stays warm across *restarts* (entries are replayed
/// through the proof checker before they are trusted, exactly as in batch
/// mode). Because result-store keys fold in the function body, its callee
/// specs, and the spec-environment fingerprint, a revision re-verifies
/// exactly the functions whose verification problem actually changed —
/// everything else is an L1 hit, and editing one of N workspace files
/// re-verifies only that file's changed functions.
///
/// Each document carries its own revision state: poll fingerprints
/// (mtime+size, then a content hash so `touch` without an edit is not a
/// revision), an optional *overlay* — an editor-owned buffer installed by
/// the LSP server on didOpen/didChange that takes precedence over the
/// file's bytes — and the last compiled session.
///
/// Events are typed (daemon::Event); the JSON-lines protocol over stdio
/// (`verifyd --stdio`) or a Unix domain socket (`verifyd --socket=PATH`)
/// renders them with Event::toJsonLine, and the LSP server consumes them
/// directly through a StructuredSink. Requests are single words
/// (`check`, `status`, `shutdown`); every `check` exchange is terminated
/// by a `revision_done`, `unchanged`, or `error` event per document, and
/// any other line gets an `unknown command` error event.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_DAEMON_DAEMON_H
#define RCC_DAEMON_DAEMON_H

#include "daemon/Event.h"
#include "frontend/Frontend.h"
#include "refinedc/Checker.h"
#include "store/ResultStore.h"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace rcc::daemon {

struct DaemonOptions {
  /// The primary watched source file (the workspace's first document).
  std::string Path;
  /// Additional workspace documents (verifyd accepts several files; the
  /// LSP server adds documents dynamically via addDocument instead).
  std::vector<std::string> Paths;
  /// Persistent L2 cache directory (empty: L1 only — warm across
  /// revisions, cold across restarts).
  std::string CacheDir;
  /// GC budget for the cache directory, enforced after every revision and
  /// at shutdown (0 = unbounded). See DiskResultStore::gc.
  uint64_t CacheMaxBytes = 0;
  /// Concurrent verification jobs per revision (0 = all cores).
  unsigned Jobs = 1;
  /// Replay freshly searched derivations through the independent
  /// ProofChecker. L2 hits are replayed before they are trusted either
  /// way.
  bool Recheck = true;
  /// Watch poll interval in milliseconds.
  unsigned PollMs = 200;
  /// Optional trace session: revision spans and the `daemon.revisions` /
  /// `daemon.reverified` counters land here.
  trace::TraceSession *Trace = nullptr;
};

class Daemon {
public:
  explicit Daemon(DaemonOptions Opts);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  // --- Workspace management (the LSP server's surface) ---

  /// Adds \p Path to the workspace (no-op if already present). Returns
  /// false only when Path is empty.
  bool addDocument(const std::string &Path);
  /// Removes \p Path and its session; shared-tier entries stay warm (keys
  /// are content hashes, so re-adding the document hits L1).
  bool removeDocument(const std::string &Path);
  /// The watched document paths, in workspace order.
  std::vector<std::string> documents() const;
  /// Installs an editor-owned buffer for \p Path (didOpen/didChange): all
  /// subsequent checks verify this text instead of the file's bytes. Adds
  /// the document if needed.
  void setOverlay(const std::string &Path, std::string Text);
  /// Drops the overlay (didClose); the next check reads the file again.
  bool clearOverlay(const std::string &Path);
  bool hasOverlay(const std::string &Path) const;

  // --- Checking ---

  /// One revision step over the whole workspace. \p Force re-reads every
  /// document even when the cheap mtime/size poll saw no change (a `check`
  /// request); the watch loop calls with Force=false. Returns true when at
  /// least one revision was processed (verified or failed to compile). On
  /// an unchanged forced check, emits an `unchanged` event per document so
  /// a request is never left without a terminating reply.
  bool checkOnce(const StructuredSink &Sink, bool Force = false);
  bool checkOnce(const EventSink &Sink, bool Force = false);

  /// One revision step for a single document (the LSP server's per-save
  /// path). Adds the document if needed.
  bool checkDocument(const std::string &Path, const StructuredSink &Sink,
                     bool Force = true);

  /// Dispatches one protocol line (`check` / `status` / `shutdown`;
  /// unknown commands produce an `error` event). Returns false when the
  /// daemon should shut down.
  bool handleLine(const std::string &Line, const EventSink &Sink);
  bool handleLine(const std::string &Line, const StructuredSink &Sink);

  /// Stdio transport: cold-start verification, then one command per input
  /// line. When \p In is std::cin, the loop polls the workspace between
  /// lines (watch mode); other streams (tests) are drained line by line.
  /// Returns the exit code (0 iff the last revision fully verified).
  int runStdio(std::istream &In, std::ostream &Out);

  /// Unix-domain-socket transport: accepts any number of clients, serves
  /// their requests, broadcasts watch revisions to all of them, and
  /// mirrors every event to stdout. Returns the exit code.
  int runSocket(const std::string &SockPath);

  /// Installs SIGINT/SIGTERM handlers that request a clean shutdown (the
  /// run loops flush the store GC and emit a final `shutdown` event).
  static void installSignalHandlers();
  static bool shutdownRequested();
  /// Clears the flag (tests reuse the process).
  static void resetShutdownFlag();

  // --- State queries ---

  /// Revision counter of the primary (first) document.
  unsigned revision() const;
  /// Revision counter of one document (0 = unknown path or never checked).
  unsigned documentRevision(const std::string &Path) const;
  /// Last result of the primary document.
  const refinedc::ProgramResult &lastResult() const;
  /// Last result of one document (nullptr = unknown path).
  const refinedc::ProgramResult *result(const std::string &Path) const;
  /// True when every workspace document's last processed revision compiled
  /// and fully verified.
  bool lastAllVerified() const;
  store::DiskResultStore *l2() { return L2.get(); }

private:
  /// One watched document: poll fingerprints, optional editor overlay, and
  /// the live session of its last good compile.
  struct Document {
    std::string Path;

    /// Cheap poll state (mtime+size) and the authoritative content hash.
    bool HaveStat = false;
    int64_t LastMTimeTicks = 0;
    uint64_t LastSize = 0;
    uint64_t LastHash = 0;

    /// Editor-owned buffer; when present it is the document's content.
    bool HasOverlay = false;
    std::string Overlay;

    unsigned Rev = 0;
    bool LastGood = false;
    /// The live session. Chk references *AP, so AP must outlive it; both
    /// are replaced together on a successful recompile (Chk first).
    std::unique_ptr<front::AnnotatedProgram> AP;
    std::unique_ptr<refinedc::Checker> Chk;
    refinedc::ProgramResult Last;

    ~Document() {
      Chk.reset();
      AP.reset();
    }
  };

  Document *find(const std::string &Path);
  const Document *find(const std::string &Path) const;
  /// One revision step for \p D (see checkOnce for the contract).
  bool checkDoc(Document &D, const StructuredSink &Sink, bool Force);
  /// Compiles \p Source, builds a fresh Checker session over the shared
  /// tiers, verifies every annotated function, and emits the revision's
  /// events. False when the source does not compile (an `error` event
  /// carrying the frontend's source location is emitted and the previous
  /// session stays live).
  bool verifyRevision(Document &D, const std::string &Source,
                      const StructuredSink &Sink);
  /// Enforces CacheMaxBytes on L2, emitting a `gc` event when anything
  /// was evicted.
  void runGc(const StructuredSink &Sink);
  void emitShutdown(const StructuredSink &Sink);
  /// Adapts a JSON-lines sink to the typed model.
  static StructuredSink render(const EventSink &Sink);

  DaemonOptions O;
  /// Shared tiers, adopted by every revision's Checker in every document.
  std::shared_ptr<store::MemoryResultStore> L1;
  std::shared_ptr<store::DiskResultStore> L2;

  /// The workspace. Stable pointers (unique_ptr elements) because live
  /// sessions hold interior references.
  std::vector<std::unique_ptr<Document>> Docs;
};

} // namespace rcc::daemon

#endif // RCC_DAEMON_DAEMON_H
