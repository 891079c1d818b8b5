//===- Checker.cpp --------------------------------------------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "refinedc/Checker.h"

#include "caesium/Ast.h"
#include "refinedc/FnHash.h"
#include "refinedc/ProofChecker.h"
#include "support/ThreadPool.h"
#include "support/Util.h"
#include "trace/Trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace rcc;
using namespace rcc::refinedc;
using namespace rcc::lithium;
using namespace rcc::pure;

//===----------------------------------------------------------------------===//
// Checker
//===----------------------------------------------------------------------===//

Checker::Checker(const front::AnnotatedProgram &AP,
                 rcc::DiagnosticEngine &Diags)
    : AP(AP), Diags(Diags) {
  registerStandardRules(Rules);
  // Dispatch-mode override for benchmarking and equivalence testing:
  // "linear" restores the pre-index full scan (scripts/bench_engine.sh uses
  // it as the baseline). Results are identical in both modes by
  // construction.
  const char *D = std::getenv("RCC_DISPATCH");
  if (D && std::strcmp(D, "linear") == 0)
    Rules.setMode(lithium::RuleRegistry::DispatchMode::Linear);
}

Checker::~Checker() {
  // Break the definition cycles of recursive named types (Body -> Named ->
  // Def -> Body) so the shared type graph is reclaimed.
  for (auto &[Name, Def] : Env.Named)
    std::const_pointer_cast<NamedTypeDef>(Def)->Body = nullptr;
}

static const front::RcAnnot *findAnnot(const std::vector<front::RcAnnot> &As,
                                       const std::string &Kind) {
  for (const front::RcAnnot &A : As)
    if (A.Kind == Kind)
      return &A;
  return nullptr;
}

bool Checker::buildNamedTypes() {
  // Pass 1: create definition shells so recursive references resolve.
  for (const auto &[SName, SI] : AP.Structs) {
    Env.Layouts[SName] = &SI.Layout;
    auto Def = std::make_shared<NamedTypeDef>();
    Def->Layout = &SI.Layout;
    std::string DefName = SName;
    if (const front::RcAnnot *PT = findAnnot(SI.Annots, "ptr_type")) {
      // "name: <type>"
      const std::string &S = PT->Args.empty() ? std::string() : PT->Args[0];
      size_t Colon = S.find(':');
      if (Colon != std::string::npos)
        DefName = trim(S.substr(0, Colon));
      Def->IsPtrType = true;
    }
    Def->Name = DefName;
    Def->RefnVar = "_r";
    Def->RefnSort = Sort::Nat;
    if (const front::RcAnnot *RB = findAnnot(SI.Annots, "refined_by")) {
      if (RB->Args.size() != 1) {
        Diags.error(RB->Loc,
                    "rc::refined_by expects exactly one binder here");
        return false;
      }
      if (!parseBinder(RB->Args[0], Def->RefnVar, Def->RefnSort, Diags,
                       RB->Loc))
        return false;
    }
    Env.Named[DefName] = Def;
  }

  // Pass 2: parse bodies.
  for (const auto &[SName, SI] : AP.Structs) {
    // Find the def registered for this struct.
    std::shared_ptr<NamedTypeDef> Def;
    for (auto &[DN, D] : Env.Named)
      if (D->Layout == &SI.Layout)
        Def = std::const_pointer_cast<NamedTypeDef>(
            std::static_pointer_cast<const NamedTypeDef>(D));
    if (!Def)
      continue;

    SpecScope Scope;
    Scope[Def->RefnVar] = Def->RefnSort;
    std::vector<std::pair<std::string, Sort>> ExVars;
    for (const front::RcAnnot &A : SI.Annots) {
      if (A.Kind != "exists")
        continue;
      for (const std::string &B : A.Args) {
        std::string N;
        Sort S;
        if (!parseBinder(B, N, S, Diags, A.Loc))
          return false;
        ExVars.push_back({N, S});
        Scope[N] = S;
      }
    }

    // Field types.
    std::vector<TypeRef> Fields;
    for (const front::CStructField &F : SI.Fields) {
      const front::RcAnnot *FA = findAnnot(F.Annots, "field");
      if (!FA || FA->Args.empty()) {
        // Unannotated fields get their physical size as uninitialized data.
        const caesium::FieldLayout *FL = SI.Layout.field(F.Name);
        Fields.push_back(
            tyUninit(mkNat(static_cast<int64_t>(FL ? FL->Ly.Size : 0))));
        continue;
      }
      SpecParser P(FA->Args[0], Env, Scope, Diags, FA->Loc);
      TypeRef T = P.parseTypeFull();
      if (P.hadError())
        return false;
      Fields.push_back(T);
    }
    TypeRef Body = tyStruct(&SI.Layout, std::move(Fields));

    // rc::size wraps in padding.
    if (const front::RcAnnot *SZ = findAnnot(SI.Annots, "size")) {
      SpecParser P(SZ->Args[0], Env, Scope, Diags, SZ->Loc);
      TermRef N = P.parseTermFull();
      if (P.hadError())
        return false;
      Body = tyPadded(Body, N);
    }
    // rc::constraints wrap.
    for (const front::RcAnnot &A : SI.Annots) {
      if (A.Kind != "constraints")
        continue;
      for (const std::string &CS : A.Args) {
        SpecParser P(CS, Env, Scope, Diags, A.Loc);
        TermRef Phi = P.parseTermFull();
        if (P.hadError())
          return false;
        Body = tyConstraint(Body, Phi);
      }
    }
    // rc::exists wrap (innermost binder declared last).
    for (auto It = ExVars.rbegin(); It != ExVars.rend(); ++It)
      Body = tyExists(It->first, It->second, Body);

    // rc::ptr_type: the definition refines the pointer typedef; '...'
    // denotes the struct body built above.
    if (const front::RcAnnot *PT = findAnnot(SI.Annots, "ptr_type")) {
      const std::string &S = PT->Args[0];
      size_t Colon = S.find(':');
      std::string TypeStr =
          Colon == std::string::npos ? S : S.substr(Colon + 1);
      SpecScope PScope;
      PScope[Def->RefnVar] = Def->RefnSort;
      SpecParser P(TypeStr, Env, PScope, Diags, PT->Loc);
      P.SelfStructType = Body;
      TypeRef PtrBody = P.parseTypeFull();
      if (P.hadError())
        return false;
      Def->Body = PtrBody;
    } else {
      Def->Body = Body;
    }
  }
  return true;
}

/// Parses function-style annotations (on functions and on fn typedefs) into
/// a FnSpec. Returns nullptr if the annotation list carries no spec.
static std::shared_ptr<FnSpec>
parseFnSpec(const std::string &Name, const std::vector<front::RcAnnot> &As,
            size_t NumCArgs, TypeEnv &Env, rcc::DiagnosticEngine &Diags,
            unsigned *PureLines) {
  bool Any = false;
  for (const front::RcAnnot &A : As)
    if (A.Kind == "parameters" || A.Kind == "args" || A.Kind == "returns" ||
        A.Kind == "requires" || A.Kind == "ensures" || A.Kind == "trust_me")
      Any = true;
  if (!Any)
    return nullptr;

  auto S = std::make_shared<FnSpec>();
  S->Name = Name;
  SpecScope Scope;

  for (const front::RcAnnot &A : As) {
    if (A.Kind == "parameters") {
      for (const std::string &B : A.Args) {
        std::string N;
        Sort Srt;
        if (!parseBinder(B, N, Srt, Diags, A.Loc))
          return nullptr;
        S->Params.push_back({N, Srt});
        Scope[N] = Srt;
      }
    }
    if (A.Kind == "exists") {
      for (const std::string &B : A.Args) {
        std::string N;
        Sort Srt;
        if (!parseBinder(B, N, Srt, Diags, A.Loc))
          return nullptr;
        S->RetExists.push_back({N, Srt});
        Scope[N] = Srt;
      }
    }
  }

  for (const front::RcAnnot &A : As) {
    if (A.Kind == "args") {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        TypeRef Ty = P.parseTypeFull();
        if (P.hadError())
          return nullptr;
        S->Args.push_back(Ty);
      }
    } else if (A.Kind == "returns") {
      SpecParser P(A.Args[0], Env, Scope, Diags, A.Loc);
      S->Ret = P.parseTypeFull();
      if (P.hadError())
        return nullptr;
    } else if (A.Kind == "requires") {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        ResAtom At;
        if (!P.parseAtomFull(At))
          return nullptr;
        S->Requires.push_back(At);
      }
    } else if (A.Kind == "ensures") {
      for (const std::string &T : A.Args) {
        SpecParser P(T, Env, Scope, Diags, A.Loc);
        ResAtom At;
        if (!P.parseAtomFull(At))
          return nullptr;
        S->Ensures.push_back(At);
      }
    } else if (A.Kind == "tactics") {
      for (const std::string &T : A.Args) {
        for (const char *Known : {"multiset_solver", "set_solver"})
          if (T.find(Known) != std::string::npos)
            S->Tactics.push_back(Known);
      }
    } else if (A.Kind == "trust_me") {
      S->TrustMe = true;
    } else if (A.Kind == "lemma") {
      // rc::lemma("name", "prop", "pure-lines") models a manual Coq proof.
      if (A.Args.size() < 2) {
        Diags.error(A.Loc, "rc::lemma expects a name and a proposition");
        return nullptr;
      }
      // Lemma propositions may quantify over their own variables.
      SpecParser P(A.Args[1], Env, Scope, Diags, A.Loc);
      TermRef Prop = P.parseTermFull();
      if (P.hadError())
        return nullptr;
      unsigned Lines = 1;
      if (A.Args.size() >= 3)
        Lines = static_cast<unsigned>(std::atoi(A.Args[2].c_str()));
      if (PureLines)
        *PureLines += Lines;
      S->Lemmas.push_back({A.Args[0], Prop, Lines});
    }
  }

  if (!S->Args.empty() && S->Args.size() != NumCArgs) {
    Diags.error({}, "function '" + Name + "' declares " +
                        std::to_string(NumCArgs) + " C parameters but " +
                        std::to_string(S->Args.size()) + " rc::args types");
    return nullptr;
  }
  return S;
}

bool Checker::buildFnSpecs() {
  // Function-type typedefs first (so fn<...> references resolve), then
  // functions.
  for (const front::CTypedef &TD : AP.Typedefs) {
    if (TD.Annots.empty() || !TD.Ty || !TD.Ty->isFunc())
      continue;
    auto S = parseFnSpec(TD.Name, TD.Annots, TD.Ty->Params.size(), Env,
                         Diags, &PureLines);
    if (!S && Diags.hasErrors())
      return false;
    if (S)
      Env.FnSpecs[TD.Name] = S;
  }
  for (const auto &[Name, FI] : AP.Fns) {
    auto S = parseFnSpec(Name, FI.Annots, FI.Params.size(), Env, Diags,
                         &PureLines);
    if (!S && Diags.hasErrors())
      return false;
    if (S)
      Env.FnSpecs[Name] = S;
  }
  return true;
}

bool Checker::buildGlobals() {
  for (const auto &[Name, GI] : AP.Globals) {
    const front::RcAnnot *GA = findAnnot(GI.Annots, "global");
    if (!GA || GA->Args.empty())
      continue;
    SpecScope Scope;
    SpecParser P(GA->Args[0], Env, Scope, Diags, GA->Loc);
    TypeRef T = P.parseTypeFull();
    if (P.hadError())
      return false;
    GlobalAtoms.push_back(
        ResAtom::loc(mkVar("&g:" + Name, Sort::Loc), T));
  }
  return true;
}

bool Checker::buildEnv() {
  return buildNamedTypes() && buildFnSpecs() && buildGlobals();
}

std::optional<LoopInv>
Checker::parseLoopInv(const std::vector<front::RcAnnot> &As,
                      const SpecScope &BaseScope,
                      rcc::DiagnosticEngine &Diags) const {
  LoopInv Inv;
  SpecScope Scope = BaseScope;
  for (const front::RcAnnot &A : As) {
    if (A.Kind != "exists")
      continue;
    for (const std::string &B : A.Args) {
      std::string N;
      Sort S;
      if (!parseBinder(B, N, S, Diags, A.Loc))
        return std::nullopt;
      Inv.ExVars.push_back({N, S});
      Scope[N] = S;
    }
  }
  for (const front::RcAnnot &A : As) {
    if (A.Kind == "inv_vars") {
      for (const std::string &VS : A.Args) {
        SpecParser P(VS, Env, Scope, Diags, A.Loc);
        std::string Var;
        TypeRef Ty;
        if (!P.parseInvVarFull(Var, Ty))
          return std::nullopt;
        Inv.InvVars.push_back({Var, Ty});
      }
    } else if (A.Kind == "constraints") {
      for (const std::string &CS : A.Args) {
        SpecParser P(CS, Env, Scope, Diags, A.Loc);
        TermRef Phi = P.parseTermFull();
        if (P.hadError())
          return std::nullopt;
        Inv.Constraints.push_back(Phi);
      }
    }
  }
  return Inv;
}

FnResult Checker::verifyFunction(const std::string &Name,
                                 const VerifyOptions &Opts) const {
  // Per-function span and wall time. The timing is unconditional (two clock
  // reads per function; --format=json reports it even without tracing); the
  // span costs nothing when no session is installed.
  trace::Span FnSpan(trace::Category::Checker, std::string("checker.fn"),
                     trace::current() ? "\"fn\": \"" + Name + "\""
                                      : std::string());
  auto FnStart = std::chrono::steady_clock::now();
  FnResult Res;
  Res.Name = Name;
  // On every return path: record wall time, and synthesize the structured
  // diagnostic for a failing result, so all transports (JSON mode, daemon
  // events, LSP) render the same typed rcc::Diagnostic. Engine failures
  // have a point location that is widened to the token at that position;
  // early errors (missing spec, arity mismatch...) have none and fall back
  // to the function's name range from the front end.
  struct ResultGuard {
    std::chrono::steady_clock::time_point T0;
    FnResult &R;
    const front::AnnotatedProgram &AP;
    ~ResultGuard() {
      R.WallMillis = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
      if (R.Verified || R.Error.empty() || !R.Diags.empty())
        return;
      rcc::Diagnostic D;
      D.Level = rcc::DiagLevel::Error;
      D.Message = R.Error;
      D.Fn = R.Name;
      D.Rule = R.FailedRule;
      D.Context = R.ErrorContext;
      auto It = AP.Fns.find(R.Name);
      const front::FnInfo *FI = It != AP.Fns.end() ? &It->second : nullptr;
      if (R.ErrorLoc.isValid()) {
        rcc::SourceRange Rng = tokenRangeAt(AP.Source, R.ErrorLoc);
        D.Loc = Rng.Begin;
        D.End = Rng.End;
      } else if (FI && FI->NameRange.isValid()) {
        D.Loc = FI->NameRange.Begin;
        D.End = FI->NameRange.End;
      } else if (FI && FI->Loc.isValid()) {
        D.Loc = FI->Loc;
      }
      R.Diags.push_back(std::move(D));
    }
  } TG{FnStart, Res, AP};

  auto SIt = Env.FnSpecs.find(Name);
  if (SIt == Env.FnSpecs.end()) {
    Res.Error = "function '" + Name + "' has no RefinedC specification";
    return Res;
  }
  std::shared_ptr<FnSpec> Spec = SIt->second;
  if (Spec->TrustMe) {
    // Assumed specification (possibly a body-less prototype): nothing to
    // check; callers may use the spec.
    Res.Verified = true;
    Res.Trusted = true;
    if (Opts.Recheck) {
      Res.Rechecked = true;
      Res.RecheckOk = true; // nothing to replay
    }
    return Res;
  }
  auto FIt = AP.Fns.find(Name);
  const caesium::Function *Fn = AP.Prog.function(Name);
  if (FIt == AP.Fns.end() || !Fn) {
    Res.Error = "unknown function '" + Name + "'";
    return Res;
  }
  const front::FnInfo &FI = FIt->second;
  if (Spec->Args.size() != FI.Params.size()) {
    Res.Error = "specification/parameter arity mismatch for '" + Name + "'";
    return Res;
  }

  // Per-job solver, copied from the session template so user-registered
  // simplification rules apply, then configured for this function
  // (rc::tactics, lemmas). Jobs never share a solver: its extra-solver
  // list, lemma table, and statistics are all per-function state.
  pure::PureSolver Solver = SolverProto;
  Solver.setPortfolioMode(Opts.Portfolio);
  Solver.clearExtraSolvers();
  Solver.clearLemmas();
  for (const std::string &T : Spec->Tactics) {
    if (T == "multiset_solver" || T == "set_solver")
      Solver.enableSolver(T);
  }
  for (const pure::Lemma &L : Spec->Lemmas)
    Solver.addLemma(L);

  // Per-job diagnostics: loop-invariant parse errors surface through
  // FnResult::Error, never through the session's DiagnosticEngine (which
  // is not safe to share between concurrent jobs).
  rcc::DiagnosticEngine JobDiags;

  // Per-job goal pool: every Goal/Judgment node built while verifying this
  // function comes from these slabs and is released wholesale on return.
  // Declared before the engines and the verify context so it outlives every
  // GoalRef built below (nothing goal-shaped escapes into Res, which holds
  // only stats, diagnostics and the derivation's rendered steps).
  lithium::GoalPool Pool;
  lithium::GoalPoolScope PoolScope(Pool);

  VerifyCtx C;
  C.AP = &AP;
  C.Env = &Env;
  C.Fn = Fn;
  C.FI = &FI;
  C.Spec = Spec;
  C.GlobalAtoms = GlobalAtoms;

  // Spec scope for loop invariants: parameters and ret-existentials.
  SpecScope Scope;
  for (const auto &[N, S] : Spec->Params)
    Scope[N] = S;

  // Entry slot types: argument specs, uninit for locals.
  std::map<std::string, TypeRef> EntryTypes;
  for (size_t I = 0; I < Fn->Params.size(); ++I)
    EntryTypes[Fn->Params[I].first] = Spec->Args[I];
  for (const auto &[LName, LSize] : Fn->Locals)
    EntryTypes[LName] = tyUninit(mkNat(static_cast<int64_t>(LSize)));

  // Parse loop invariants; unlisted slots implicitly keep their entry types
  // (they must not have changed, which the proof at the cut point checks).
  for (const auto &As : FI.LoopAnnots) {
    auto Inv = parseLoopInv(As, Scope, JobDiags);
    if (!Inv) {
      Res.Error = "failed to parse a loop invariant in '" + Name + "'";
      return Res;
    }
    std::set<std::string> Listed;
    for (const auto &[V, T] : Inv->InvVars)
      Listed.insert(V);
    for (const auto &[SlotName, Ty] : EntryTypes)
      if (!Listed.count(SlotName))
        Inv->InvVars.push_back({SlotName, Ty});
    C.LoopInvs.push_back(std::move(*Inv));
  }

  pure::EvarEnv Evars;
  Engine E(Rules, Solver, Evars, Res.Stats, &Res.Deriv);
  E.Ctx = &C;
  E.BacktrackMode = Opts.Backtracking;
  E.MaxStepsOverride =
      Opts.MaxSteps ? Opts.MaxSteps : (Opts.Backtracking ? 20000u : 0u);

  // Seed the initial contexts: argument atoms, local slots, requires.
  for (size_t I = 0; I < Fn->Params.size(); ++I)
    E.pushAtom(ResAtom::loc(mkVar("&" + Fn->Params[I].first, Sort::Loc),
                            Spec->Args[I]));
  for (const auto &[LName, LSize] : Fn->Locals)
    E.pushAtom(ResAtom::loc(mkVar("&" + LName, Sort::Loc),
                            tyUninit(mkNat(static_cast<int64_t>(LSize)))));
  for (const ResAtom &A : Spec->Requires)
    E.pushAtom(A);
  for (const ResAtom &A : GlobalAtoms)
    E.pushAtom(A);
  C.Gamma0 = E.Gamma;

  // The entry path.
  lithium::Judgment J0;
  J0.K = JudgKind::Stmt;
  J0.Fn = Fn;
  J0.BlockId = 0;
  J0.StmtIdx = 0;
  bool Ok;
  {
    trace::Span EntrySpan(trace::Category::Checker, "checker.entry");
    Ok = E.prove(gJudg(std::move(J0)));
  }

  // Each loop-invariant block, once, from the invariant.
  while (Ok && !C.PendingBlocks.empty()) {
    unsigned B = C.PendingBlocks.back();
    C.PendingBlocks.pop_back();
    int Id = Fn->Blocks[B].AnnotId;
    const LoopInv &Inv = C.LoopInvs[Id];
    trace::Span CutSpan(trace::Category::Checker,
                        std::string("checker.cutpoint"),
                        trace::current() ? "\"block\": " + std::to_string(B)
                                         : std::string());

    Engine E2(Rules, Solver, Evars, Res.Stats, &Res.Deriv);
    E2.Ctx = &C;
    E2.BacktrackMode = Opts.Backtracking;
    E2.MaxStepsOverride =
        Opts.MaxSteps ? Opts.MaxSteps : (Opts.Backtracking ? 20000u : 0u);
    E2.Gamma = C.Gamma0;
    // Existentials of the invariant become universals when assuming it.
    std::map<std::string, TermRef> Subst;
    for (const auto &[N, S] : Inv.ExVars)
      Subst[N] = E2.freshUniversal(N, S);
    for (const auto &[SlotName, Ty] : Inv.InvVars) {
      TypeRef T = Ty;
      for (const auto &[N2, R2] : Subst)
        T = substTypeVar(T, N2, R2);
      E2.pushAtom(
          ResAtom::loc(mkVar("&" + SlotName, Sort::Loc), T));
    }
    for (TermRef Phi : Inv.Constraints) {
      TermRef P = Phi;
      for (const auto &[N2, R2] : Subst)
        P = substVar(P, N2, R2);
      E2.addFact(P);
    }
    for (const ResAtom &A : GlobalAtoms)
      E2.pushAtom(A);

    lithium::Judgment JB;
    JB.K = JudgKind::Stmt;
    JB.Fn = Fn;
    JB.BlockId = B;
    JB.StmtIdx = 0;
    Ok = E2.prove(gJudg(std::move(JB)));
    Res.BacktrackedSteps += E2.BacktrackedSteps;
    if (!Ok) {
      Res.Error = E2.Failure;
      Res.ErrorLoc = E2.FailureLoc;
      Res.ErrorContext = E2.FailureContext;
      Res.FailedRule = E2.FailureRule;
    }
  }
  Res.BacktrackedSteps += E.BacktrackedSteps;

  if (!Ok && Res.Error.empty()) {
    Res.Error = E.Failure;
    Res.ErrorLoc = E.FailureLoc;
    Res.ErrorContext = E.FailureContext;
    Res.FailedRule = E.FailureRule;
  }
  Res.Verified = Ok;
  Res.EvarsInstantiated = Evars.numInstantiated();

  // Foundational pass: replay the recorded derivation through the
  // independent ProofChecker. The backtracking baseline's derivations are
  // not replayable (rolled-back steps are not recorded as such).
  if (Opts.Recheck && Res.Verified && !Opts.Backtracking) {
    Res.Rechecked = true;
    Res.RecheckOk = replays(Res.Deriv, Spec.get());
  }
  return Res;
}

bool Checker::replays(const lithium::Derivation &D, const FnSpec *Spec) const {
  static const std::vector<pure::Lemma> NoLemmas;
  return ProofChecker(Rules).check(D, Spec ? Spec->Lemmas : NoLemmas).Ok;
}

uint64_t Checker::fnContentHash(const std::string &Name,
                                const VerifyOptions &Opts) const {
  if (!EnvFingerprintValid) {
    EnvFingerprint = hashSpecEnvironment(AP);
    EnvFingerprintValid = true;
  }
  // Session fingerprint: anything a user extension can mutate between runs
  // (registered typing rules, simplifier rules) plus every option that
  // changes the result — Jobs is deliberately excluded, results are
  // job-count-independent by construction.
  ContentHasher H;
  // The registry fingerprint covers every rule's name, kind, priority and
  // dispatch key (plus a dispatch-format salt), so persisted results also
  // self-invalidate when dispatch semantics — including the subsumption
  // memo's key schema — change, not just when the rule count does.
  H.mix(Rules.fingerprint());
  for (const auto &R : SolverProto.simplifier().rules())
    H.mix(R.Name);
  // Only options that change the *verdict* participate: Recheck alters
  // trust metadata only, which probeStore re-establishes per hit (replay
  // for persistent hits, the strictness guard for L1), so keying on it
  // would partition the store by driver — `verifyd --no-recheck` and a
  // rechecking verify_tool may share one --cache-dir, and each must find
  // the other's entries.
  H.mix(static_cast<uint64_t>(Opts.Backtracking))
      .mix(static_cast<uint64_t>(Opts.MaxSteps))
      // Off lacks the bit-vector backend and must not reuse portfolio-era
      // cache entries.
      .mix(static_cast<uint64_t>(Opts.Portfolio != pure::PortfolioMode::Off));
  return hashFunctionContent(AP, Name, EnvFingerprint, H.get());
}

void Checker::invalidateCache() {
  // Only the in-memory tier is cleared: persistent entries self-invalidate
  // through their content-hash keys (the session fingerprint folds in the
  // rule count and simplifier rule names, so a mutated session simply
  // misses on every old entry).
  L1->clear();
  EnvFingerprintValid = false;
}

void Checker::adoptTierStack(
    std::shared_ptr<store::MemoryResultStore> SharedL1,
    std::shared_ptr<store::ResultStore> PersistentTier) {
  L1 = SharedL1 ? std::move(SharedL1)
                : std::make_shared<store::MemoryResultStore>();
  Persistent = std::move(PersistentTier);
  OwnedCacheDir.reset();
}

void Checker::configureStore(const VerifyOptions &Opts) {
  if (!OwnedCacheDir)
    return; // the adopter owns the composition; CacheDir is ignored
  const std::string Dir = Opts.NoCache ? std::string() : Opts.CacheDir;
  if (*OwnedCacheDir == Dir)
    return; // same composition as the previous run: keep the tiers (and
            // their lifetime counters)
  adoptTierStack(L1, Dir.empty()
                         ? nullptr
                         : std::make_shared<store::DiskResultStore>(Dir));
  OwnedCacheDir = Dir;
}

bool Checker::probeStore(const std::string &Name, uint64_t Key,
                         const VerifyOptions &Opts, FnResult &Out,
                         StoreHit &Hit, RunStoreStats &RS) {
  FnResult R;
  if (L1->get(Name, Key, R)) {
    // The in-memory tier this process populated. The key does not encode
    // Recheck (it does not change verdicts), so an entry computed without
    // it can surface here; honor the stricter run by recomputing instead
    // of serving a certificate weaker than the caller asked for.
    if (R.Verified && !R.Trusted && Opts.Recheck && !R.Rechecked)
      return false;
    Hit = StoreHit::L1;
  } else if (Persistent && Persistent->get(Name, Key, R)) {
    // The entry came from outside this process. Its envelope only filtered
    // corruption and staleness; trust is established by replaying the
    // recorded derivation through the independent ProofChecker — the
    // paper's search-untrusted / checker-trusted split, extended across
    // process boundaries — whatever Opts.Recheck says. Failed and
    // rc::trust_me results carry no proof to replay and are surfaced as
    // stored. Whether a result is rc::trust_me comes from the current
    // source, never from the entry: an entry whose Trusted bit disagrees
    // with the spec is dropped and the function verified afresh.
    auto SIt = Env.FnSpecs.find(Name);
    const FnSpec *Spec = SIt != Env.FnSpecs.end() ? SIt->second.get() : nullptr;
    if (R.Trusted != (Spec && Spec->TrustMe)) {
      Persistent->drop(Name, Key);
      return false;
    }
    if (R.Verified && !R.Trusted) {
      if (R.Deriv.Steps.empty())
        return false; // stored without a derivation: cannot re-certify
      trace::Span ReplaySpan(trace::Category::Cache,
                             std::string("store.") + Persistent->tierName() +
                                 ".replay");
      auto T0 = std::chrono::steady_clock::now();
      bool Ok = replays(R.Deriv, Spec);
      auto T1 = std::chrono::steady_clock::now();
      RS.ReplayUs.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
                  .count()),
          std::memory_order_relaxed);
      RS.Replays.fetch_add(1, std::memory_order_relaxed);
      if (!Ok) {
        // A well-formed entry whose proof does not replay (L1 missed, so
        // only the persistent tier holds it). Drop it and fall back to a
        // fresh verification.
        RS.ReplayFailures.fetch_add(1, std::memory_order_relaxed);
        Persistent->drop(Name, Key);
        return false;
      }
      R.Rechecked = true;
      R.RecheckOk = true;
    }
    // Validated: promote into L1, so repeated runs hit the cheapest tier.
    L1->put(Name, Key, R);
    Hit = StoreHit::Persistent;
  } else {
    return false;
  }

  R.CacheHit = true;
  R.WallMillis = 0.0; // no check ran for this result
  Out = std::move(R);
  return true;
}

ProgramResult Checker::verifyFunctions(const std::vector<std::string> &Names,
                                       const VerifyOptions &Opts) {
  ProgramResult PR;
  PR.JobsUsed = ThreadPool::resolveJobs(Opts.Jobs);
  auto Start = std::chrono::steady_clock::now();

  // Record into Opts.Trace, else into the thread's ambient session (if
  // any). The pool propagates the installed session to its workers.
  trace::TraceSession *TS = Opts.Trace ? Opts.Trace : trace::current();
  trace::SessionScope TraceScope(TS);
  // Closed explicitly before the metrics snapshot below so the recorded
  // trace has balanced begin/end events.
  std::optional<trace::Span> RunSpan;
  RunSpan.emplace(trace::Category::Checker, "checker.run");

  // Compose this run's store tiers (L1 always; a disk L2 when CacheDir is
  // set, or whatever tiers were adopted).
  configureStore(Opts);
  const bool UseStore = !Opts.NoCache;
  store::ResultStore *PTier = UseStore ? Persistent.get() : nullptr;

  // Content hashes are computed up front, serially: this forces the lazy
  // environment fingerprint before any job runs and keeps the hashing
  // out of the parallel section's hot path.
  std::vector<uint64_t> Hashes(Names.size());
  for (size_t I = 0; I < Names.size(); ++I)
    Hashes[I] = fnContentHash(Names[I], Opts);

  PR.Fns.resize(Names.size());
  std::vector<StoreHit> Hits(Names.size(), StoreHit::Miss);
  RunStoreStats RS;
  // Corrupt-drop baseline of the persistent tier, so the run's delta can
  // be reported.
  const uint64_t CorruptBase =
      PTier ? PTier->counters().CorruptDrops.load(std::memory_order_relaxed)
            : 0;

  // Each job consults the store at job start (probe + replay) and
  // publishes to both tiers at job end.
  ThreadPool Pool(PR.JobsUsed);
  Pool.parallelFor(Names.size(), [&](size_t I) {
    if (UseStore && probeStore(Names[I], Hashes[I], Opts, PR.Fns[I], Hits[I],
                               RS))
      return;
    PR.Fns[I] = verifyFunction(Names[I], Opts);
    if (UseStore) {
      L1->put(Names[I], Hashes[I], PR.Fns[I]);
      if (PTier)
        PTier->put(Names[I], Hashes[I], PR.Fns[I]);
    }
  });

  for (StoreHit H : Hits) {
    if (H == StoreHit::Miss)
      ++PR.CacheMisses;
    else if (H == StoreHit::L1)
      ++PR.L1Hits;
    else
      ++PR.L2Hits;
  }
  PR.CacheHits = PR.L1Hits + PR.L2Hits;
  PR.ReplayedHits = static_cast<unsigned>(RS.Replays.load());
  PR.ReplayFailures = static_cast<unsigned>(RS.ReplayFailures.load());
  PR.ReplayMillis = static_cast<double>(RS.ReplayUs.load()) / 1000.0;
  if (PTier)
    PR.CorruptDrops = static_cast<unsigned>(
        PTier->counters().CorruptDrops.load(std::memory_order_relaxed) -
        CorruptBase);

  if (TS) {
    // Fold the per-function EngineStats into the session registry —
    // serially, in index order, from the joined results, so the totals are
    // schedule- and job-count-independent. The engines never live-bump
    // these (they only bump counters EngineStats does not cover).
    trace::MetricsRegistry &MR = TS->metrics();
    for (size_t I = 0; I < PR.Fns.size(); ++I) {
      if (Hits[I] != StoreHit::Miss)
        continue; // store hits did no engine work this run
      const EngineStats &ES = PR.Fns[I].Stats;
      MR.counter("engine.rule_apps").add(ES.RuleApps);
      MR.counter("engine.goal_steps").add(ES.GoalSteps);
      MR.counter("engine.side_cond_auto").add(ES.SideCondAuto);
      MR.counter("engine.side_cond_manual").add(ES.SideCondManual);
      MR.counter("engine.rule.index_hits").add(ES.IndexHits);
      MR.counter("engine.rule.scan_fallbacks").add(ES.ScanFallbacks);
      MR.counter("engine.rule.matches").add(ES.MatchesEvals);
      MR.counter("engine.subsume.memo_hit").add(ES.MemoHits);
      MR.counter("engine.subsume.memo_miss").add(ES.MemoMisses);
    }
    MR.counter("cache.hits").add(PR.CacheHits);
    MR.counter("cache.misses").add(PR.CacheMisses);
    if (UseStore) {
      // Store accounting, mirrored from the joined results (and, for
      // corrupt drops, from the tier's own lifetime counter) so the
      // exported values are schedule-independent. The persistent tier
      // exports under its own label (store.l2.*) only when attached.
      MR.counter("store.l1.hits").add(PR.L1Hits);
      if (PTier) {
        const std::string Prefix = std::string("store.") + PTier->tierName();
        MR.counter(Prefix + ".hits").add(PR.L2Hits);
        MR.counter(Prefix + ".replays").add(PR.ReplayedHits);
        MR.counter(Prefix + ".replay_failures").add(PR.ReplayFailures);
        MR.counter(Prefix + ".replay_us").add(RS.ReplayUs.load());
        MR.counter(Prefix + ".corrupt_drops").add(PR.CorruptDrops);
      }
    }
    MR.counter("checker.functions").add(Names.size());
  }

  auto End = std::chrono::steady_clock::now();
  PR.WallMillis =
      std::chrono::duration<double, std::milli>(End - Start).count();

  // Deterministic mode extends the byte-identical guarantee from traces to
  // the ProgramResult itself: wall times are the only schedule-dependent
  // fields, so zeroing them makes `--format=json --deterministic-trace`
  // output comparable across job counts and runs.
  if (Opts.DeterministicTrace) {
    PR.WallMillis = 0.0;
    PR.ReplayMillis = 0.0;
    for (FnResult &R : PR.Fns)
      R.WallMillis = 0.0;
  }

  RunSpan.reset();
  if (TS)
    PR.Metrics = TS->metrics().toJson(TS->deterministic());
  return PR;
}

ProgramResult Checker::verifyAll(const VerifyOptions &Opts) {
  std::vector<std::string> Names;
  for (const auto &[Name, FI] : AP.Fns) {
    if (!Env.FnSpecs.count(Name))
      continue; // unannotated functions (e.g. test mains) are not verified
    if (!FI.HasBody && !Env.FnSpecs.at(Name)->TrustMe)
      continue;
    Names.push_back(Name);
  }
  return verifyFunctions(Names, Opts);
}
