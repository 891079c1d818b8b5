//===- Checker.h - The RefinedC verification driver -------------*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives verification (Figure 2, steps B and C): builds the specification
/// environment from the front end's annotation tables (named types from
/// struct annotations, function specs, loop invariants, lemmas, enabled
/// solvers), seeds the Lithium engine with the function's initial contexts
/// (argument atoms, local slots, requires clause), runs the proof search on
/// the entry block, and then checks each loop-invariant cut point once.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_REFINEDC_CHECKER_H
#define RCC_REFINEDC_CHECKER_H

#include "frontend/Frontend.h"
#include "lithium/Engine.h"
#include "refinedc/Result.h"
#include "refinedc/SpecParser.h"
#include "store/ResultStore.h"

#include <atomic>
#include <memory>
#include <optional>

namespace rcc::refinedc {

/// A parsed loop invariant (rc::exists / rc::inv_vars / rc::constraints).
struct LoopInv {
  std::vector<std::pair<std::string, pure::Sort>> ExVars;
  std::vector<std::pair<std::string, TypeRef>> InvVars; ///< slot -> type
  std::vector<TermRef> Constraints;
};

/// Verification context handed to the typing rules through the engine.
struct VerifyCtx : lithium::VerifyCtxBase {
  const front::AnnotatedProgram *AP = nullptr;
  const TypeEnv *Env = nullptr;
  const caesium::Function *Fn = nullptr;
  const front::FnInfo *FI = nullptr;
  std::shared_ptr<const FnSpec> Spec;
  std::vector<LoopInv> LoopInvs; ///< indexed by Block::AnnotId

  /// Pure facts available at every cut point (requires + argument-type
  /// constraints). Γ is unrestricted, so these survive loop boundaries.
  std::vector<TermRef> Gamma0;
  /// Atoms of annotated globals (persistent; re-seeded at cut points).
  ResList GlobalAtoms;

  /// Blocks with invariants that still need a separate check.
  std::vector<unsigned> PendingBlocks;
  std::set<unsigned> QueuedBlocks;
  /// Inline-visit counters: re-entering an unannotated block too often means
  /// a loop without an invariant annotation.
  std::map<unsigned, unsigned> InlineCount;

  void queueBlock(unsigned B) {
    if (QueuedBlocks.insert(B).second)
      PendingBlocks.push_back(B);
  }
};

/// Whole-program verification driver.
///
/// Concurrency model (see DESIGN.md for the full discussion): after
/// buildEnv() succeeds, a Checker is an immutable verification *session* —
/// the type environment, rule registry, global atoms, and solver
/// configuration are shared read-only by all verification jobs, which is
/// why verifyFunction is const. Each job gets its own PureSolver (copied
/// from the session's template so user-registered simplification rules
/// carry over), EvarEnv, Engine, and DiagnosticEngine, so jobs never share
/// mutable state and per-function results are byte-identical regardless of
/// Jobs. Session-level results are memoized in two store tiers (see
/// src/store and DESIGN.md, "Persistent verification store"): an always-on
/// in-memory L1 keyed by a content hash of the function body, its
/// annotations, its callees' specs, and the spec-environment fingerprint —
/// so re-running verifyAll after nothing changed is O(1) per function —
/// plus an optional persistent tier (the disk L2 of
/// VerifyOptions::CacheDir) whose entries survive the process and are
/// replayed through the independent ProofChecker before being trusted.
class Checker {
public:
  Checker(const front::AnnotatedProgram &AP, rcc::DiagnosticEngine &Diags);

  /// Recursive named types form intentional shared_ptr cycles
  /// (NamedTypeDef::Body mentions the definition). The destructor breaks
  /// them so the whole type graph is reclaimed; unfolding named types is
  /// therefore only valid while the owning Checker is alive.
  ~Checker();

  /// Builds the type environment from annotations. False on spec errors.
  bool buildEnv();

  /// Adopts externally-owned tiers in place of the session-owned ones:
  /// the trusted in-memory L1 (nullptr keeps a fresh private one) and an
  /// optional *untrusted* persistent tier probed after it. This is how the
  /// verification daemon (src/daemon) keeps results warm across
  /// *revisions*: each revision compiles a fresh Checker session, but all
  /// sessions share one L1 (and optionally one disk L2), and the
  /// content-hash keys — which fold in the function body, callee specs,
  /// and the spec-environment fingerprint — guarantee a stale entry can
  /// only miss. Every verified persistent hit is replayed through the
  /// ProofChecker before it is surfaced or promoted into L1, whatever
  /// VerifyOptions::Recheck says. Once adopted, VerifyOptions::CacheDir is
  /// ignored (the tiers are fixed); VerifyOptions::NoCache still bypasses
  /// probes per run.
  void adoptTierStack(std::shared_ptr<store::MemoryResultStore> SharedL1,
                      std::shared_ptr<store::ResultStore> Persistent);

  /// Verifies one function against its annotations. Thread-safe: shares
  /// only immutable session state, and bypasses the result store.
  FnResult verifyFunction(const std::string &Name,
                          const VerifyOptions &Opts) const;

  /// Verifies the named functions (in the given order) with Opts.Jobs
  /// concurrent jobs; each job consults the session result store at job
  /// start and publishes at job end.
  ProgramResult verifyFunctions(const std::vector<std::string> &Names,
                                const VerifyOptions &Opts);

  /// Verifies every annotated function with a body (plus trusted
  /// prototypes' specs); returns the aggregate result.
  ProgramResult verifyAll(const VerifyOptions &Opts);

  const TypeEnv &env() const { return Env; }
  const lithium::RuleRegistry &rules() const { return Rules; }
  const pure::PureSolver &solver() const { return SolverProto; }

  /// Selects how rule lookups assemble candidates (Indexed by default; see
  /// RuleRegistry::DispatchMode). Both modes select the same rules — the
  /// dispatch-equivalence property test compares their derivations over
  /// the corpus — so no cache invalidation is needed. Also settable via the
  /// RCC_DISPATCH environment variable ("linear").
  void setDispatchMode(lithium::RuleRegistry::DispatchMode M) {
    Rules.setMode(M);
  }

  /// Mutable access to the session environment / solver template for
  /// user extensions (ExtensibilityTest registers simplification rules
  /// this way). Mutating either invalidates the in-memory result tier
  /// (persistent entries self-invalidate through their keys).
  TypeEnv &env() {
    invalidateCache();
    return Env;
  }
  pure::PureSolver &solver() {
    invalidateCache();
    return SolverProto;
  }

  /// Registered lemma line counts (Figure 7 "Pure" column).
  unsigned pureLines() const { return PureLines; }

private:
  bool buildNamedTypes();
  bool buildFnSpecs();
  bool buildGlobals();
  std::optional<LoopInv> parseLoopInv(const std::vector<front::RcAnnot> &As,
                                      const SpecScope &Scope,
                                      rcc::DiagnosticEngine &Diags) const;
  /// Content hash of one function's verification problem under Opts; 0 is
  /// never returned (reserved for "uncacheable").
  uint64_t fnContentHash(const std::string &Name,
                         const VerifyOptions &Opts) const;
  void invalidateCache();

  /// Points the session-owned persistent tier at Opts.CacheDir for this
  /// run (a disk L2 reused across runs on the same directory, none when
  /// the directory is empty), through adoptTierStack. Adopted tiers are
  /// left alone.
  void configureStore(const VerifyOptions &Opts);

  /// Which tier served a function in a run.
  enum class StoreHit : uint8_t { Miss, L1, Persistent };

  /// The persistent tier's replay accounting for a run, aggregated across
  /// jobs (L1 hits never replay).
  struct RunStoreStats {
    std::atomic<uint64_t> ReplayUs{0};
    std::atomic<uint64_t> Replays{0};
    std::atomic<uint64_t> ReplayFailures{0};
  };

  /// Job-start store probe. An L1 hit is surfaced as stored unless it
  /// carries a weaker certificate than Opts asks for; a verified
  /// persistent hit is replayed through the ProofChecker before it is
  /// surfaced and promoted into L1. Returns false — a miss — when there is
  /// no usable entry; \p Hit reports the serving tier on success.
  bool probeStore(const std::string &Name, uint64_t Key,
                  const VerifyOptions &Opts, FnResult &Out, StoreHit &Hit,
                  RunStoreStats &RS);

  /// Replays \p D through a fresh ProofChecker with the lemmas of \p Spec
  /// (none when null): the one replay setup behind both the recheck of a
  /// search and the validation of a persistent hit.
  bool replays(const lithium::Derivation &D, const FnSpec *Spec) const;

  const front::AnnotatedProgram &AP;
  rcc::DiagnosticEngine &Diags;
  TypeEnv Env;
  lithium::RuleRegistry Rules;
  /// Session solver template: per-job solvers are copies of this, so its
  /// configuration (user simplification rules) is shared read-only.
  pure::PureSolver SolverProto;
  ResList GlobalAtoms;
  unsigned PureLines = 0;

  /// Spec-environment fingerprint (struct/typedef/global annotations),
  /// computed lazily; folded into every function's content hash as the
  /// conservative "named-type closure" component.
  mutable uint64_t EnvFingerprint = 0;
  mutable bool EnvFingerprintValid = false;

  /// The session result store: the trusted in-memory L1, probed first, and
  /// an optional persistent tier (null: none), untrusted until replayed.
  /// configureStore attaches a disk L2 when a run sets
  /// VerifyOptions::CacheDir, or a caller adopts both tiers through
  /// adoptTierStack. Jobs only touch the store at job start/end; both
  /// tiers are thread-safe.
  std::shared_ptr<store::MemoryResultStore> L1 =
      std::make_shared<store::MemoryResultStore>();
  std::shared_ptr<store::ResultStore> Persistent;
  /// The CacheDir the session-owned persistent tier was built for ("" =
  /// none); nullopt once adoptTierStack handed the tiers to the caller.
  std::optional<std::string> OwnedCacheDir = std::string();
};

/// Registers the RefinedC standard library of typing rules (Section 6 and
/// the supporting rules; the paper's library has ~200 rules, keyed so that
/// at most one applies to any judgment).
void registerStandardRules(lithium::RuleRegistry &R);

} // namespace rcc::refinedc

#endif // RCC_REFINEDC_CHECKER_H
