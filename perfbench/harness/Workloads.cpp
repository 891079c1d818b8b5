//===- Workloads.cpp - The verifier benchmark's workloads -----------------===//

#include "Workloads.h"

#include "Inputs.h"

#include "frontend/Frontend.h"
#include "frontend/Lexer.h"
#include "refinedc/Checker.h"
#include "refinedc/ProofChecker.h"
#include "store/ResultStore.h"
#include "store/Serialize.h"
#include "trace/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

using namespace perfbench;
using namespace rcc;
using namespace rcc::refinedc;

namespace {

using Clock = std::chrono::steady_clock;

double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Linear-interpolated quantile of \p V (sorted in place), Q in [0, 1].
double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Seed of round \p R: rounds are independent streams of one seed.
uint64_t roundSeed(uint64_t Seed, uint64_t R) {
  Rng M(Seed * 0x100000001b3ull + R);
  return M.next();
}

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// The reference kernel's wall time, in microseconds, at the host speed the
/// end-to-end times are reported at: about its median on one thread of a
/// 4-vCPU 2.1 GHz Xeon VM. Any constant would do; it only fixes the scale.
constexpr double ReferenceNominalUs = 2500;

/// How much faster than the kernel's time the verifier's times grow when the
/// host gets busier: they grow as the kernel's time to this power. Between
/// three sets of ten 30 s runs per workload, taken while the kernel's median
/// was between 1.9 and 3.3 ms, the exponents fitted to each timed end-to-end
/// metric and pair of sets lay between 0.7 and 1.7, with a median of 1.39.
/// Why the verifier slows down more than the kernel was not measured.
constexpr double HostElasticity = 1.4;

/// Gauges the host's speed with a reference kernel: a fixed computation of
/// the benchmark's own, calling no verifier code, that fills, sorts and
/// hash-probes 32 Ki words in buffers allocated once. On a shared host the
/// verifier and this kernel slow down together, so a time divided by the
/// slowdown measured next to it gauges the verifier rather than the host's
/// other tenants (perfbench/README.md gives the spreads with and without).
class HostGauge {
public:
  /// \p Threads: as many as the workload's operations verify with; each
  /// runs the kernel at once, on its own buffers.
  explicit HostGauge(unsigned Threads) : Bufs(std::max(Threads, 1u)) {}

  /// Runs the kernel and returns the host's slowdown: (the kernel's mean
  /// time over the threads ÷ ReferenceNominalUs) ^ HostElasticity.
  double slowdown() {
    std::vector<double> Us(Bufs.size());
    std::vector<std::thread> Others;
    for (size_t I = 1; I < Bufs.size(); ++I)
      Others.emplace_back([&, I] { Us[I] = kernelUs(Bufs[I]); });
    Us[0] = kernelUs(Bufs[0]);
    for (std::thread &T : Others)
      T.join();
    double Sum = 0;
    for (double U : Us)
      Sum += U;
    KernelUs.push_back(Sum / static_cast<double>(Us.size()));
    return std::pow(KernelUs.back() / ReferenceNominalUs, HostElasticity);
  }

  /// The kernel's mean time of every sample so far.
  std::vector<double> KernelUs;

private:
  struct Buffers {
    std::vector<uint64_t> Words = std::vector<uint64_t>(1 << 15);
    std::vector<uint64_t> Table = std::vector<uint64_t>(1 << 16);
  };

  static double kernelUs(Buffers &B) {
    auto T0 = Clock::now();
    uint64_t X = 0x9e3779b97f4a7c15ull, Sum = 0;
    for (uint64_t &W : B.Words) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      W = X | 1;
    }
    std::sort(B.Words.begin(), B.Words.end());
    std::fill(B.Table.begin(), B.Table.end(), 0);
    const size_t Mask = B.Table.size() - 1;
    for (uint64_t W : B.Words) {
      size_t I = (W * 0xff51afd7ed558ccdull) >> 48;
      while (B.Table[I] != 0 && B.Table[I] != W)
        I = (I + 1) & Mask;
      B.Table[I] = W;
      Sum += I;
    }
    const double Us = usBetween(T0, Clock::now());
    volatile uint64_t Sink = Sum;
    (void)Sink;
    return Us;
  }

  std::vector<Buffers> Bufs;
};

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

/// The persistent (untrusted) store tier the store-backed workloads' ops
/// use: each entry is the serialized result and its checksum, kept in
/// memory. It has none of the disk tier's envelope (magic, format version,
/// tool string, name and key checks), files, temp-file rename or mtime
/// refresh; the traced run's probe times those on a real DiskResultStore. A
/// hit is checksummed and deserialized, and the checker replays it through
/// the ProofChecker before trusting it, exactly as for a disk hit. A put
/// replaces the function's previous entry, so the tier's size does not grow
/// with the number of edits a run makes.
///
/// The benchmark writes only inside its checkout. On a 4-vCPU VM with an
/// ext4 root disk, one file create-and-rename cost 0.45 to 0.7 ms and varied
/// with the host's other load, so a directory of files would make the op
/// walls measure that disk. This tier stands in for a tmpfs cache
/// directory.
class EntryBytesTier final : public store::ResultStore {
public:
  bool get(const std::string &Name, uint64_t Key, FnResult &Out) override {
    Entry E;
    {
      std::lock_guard<std::mutex> L(M);
      auto It = Entries.find(Name);
      if (It == Entries.end() || It->second.Key != Key) {
        Counters.Misses.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      E = It->second;
    }
    if (store::checksumBytes(E.Payload) != E.Checksum ||
        !store::deserializeFnResult(E.Payload, Out)) {
      Counters.CorruptDrops.fetch_add(1, std::memory_order_relaxed);
      Counters.Misses.fetch_add(1, std::memory_order_relaxed);
      drop(Name, Key);
      return false;
    }
    Counters.Hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  void put(const std::string &Name, uint64_t Key, const FnResult &R) override {
    Entry E;
    E.Key = Key;
    E.Payload = store::serializeFnResult(R);
    E.Checksum = store::checksumBytes(E.Payload);
    std::lock_guard<std::mutex> L(M);
    Entries[Name] = std::move(E);
    Counters.Puts.fetch_add(1, std::memory_order_relaxed);
  }
  void drop(const std::string &Name, uint64_t Key) override {
    std::lock_guard<std::mutex> L(M);
    auto It = Entries.find(Name);
    if (It != Entries.end() && It->second.Key == Key)
      Entries.erase(It);
  }
  void clear() override {
    std::lock_guard<std::mutex> L(M);
    Entries.clear();
  }
  const char *tierName() const override { return "l2"; }

private:
  struct Entry {
    uint64_t Key = 0;
    std::string Payload;
    uint64_t Checksum = 0;
  };
  std::mutex M;
  std::map<std::string, Entry> Entries;
};

struct Op {
  size_t UnitIdx = 0;
  const std::string *Source = nullptr;
  VerifyOptions Opts;
  /// The persistent tier the op's session probes and publishes to (null:
  /// the session's in-memory tier only).
  std::shared_ptr<store::ResultStore> Tier;
  /// edit_warm: the function whose body the op's edit touched, and the
  /// line it indents (applied just before the op).
  int EditedFn = -1;
  unsigned EditLine = 0;
};

/// Wall-clock pieces of one operation, in microseconds. The four rows plus
/// what lies between them (unattributed) make up the op wall.
struct OpTiming {
  double CompileUs = 0, SessionUs = 0, EnvUs = 0, VerifyUs = 0, WallUs = 0;
};

/// Per-layer sums over the traced operations of a run, by metric name.
using Sums = std::map<std::string, double>;

/// Re-runs each layer's public calls on an operation's own inputs and
/// results, after the operation, timing each call. None of this is inside
/// the op wall.
class LayerProbe {
public:
  /// \p Dir holds the probe's disk tier; it is emptied first.
  explicit LayerProbe(const std::string &Dir) : Disk(Dir) { Disk.clear(); }

  void run(const Op &O, const Unit &U, const Checker &C,
           const ProgramResult &PR, Sums &S);

private:
  template <typename F> double time(F &&Fn) {
    auto T0 = Clock::now();
    Fn();
    return usBetween(T0, Clock::now());
  }

  store::DiskResultStore Disk;
};

std::vector<pure::Lemma> specLemmas(const Checker &C, const std::string &Fn) {
  std::vector<pure::Lemma> Out;
  auto It = C.env().FnSpecs.find(Fn);
  if (It != C.env().FnSpecs.end())
    for (const auto &[N, P, L] : It->second->Lemmas)
      Out.push_back({N, P, L});
  return Out;
}

void LayerProbe::run(const Op &O, const Unit &U, const Checker &C,
                     const ProgramResult &PR, Sums &S) {
  // frontend: the lexer alone (part of compile).
  {
    DiagnosticEngine D;
    size_t Tokens = 0;
    S["frontend.lex_us"] += time([&] {
      Tokens = front::lexSource(*O.Source, D).size();
    });
    S["frontend.tokens"] += static_cast<double>(Tokens);
  }

  // lithium: the engine search of every function the op searched (store
  // misses), without the recheck, plus the engine's own counters.
  VerifyOptions Search;
  Search.Portfolio = O.Opts.Portfolio;
  std::vector<size_t> Searched;
  for (size_t I = 0; I < PR.Fns.size(); ++I)
    if (!PR.Fns[I].CacheHit)
      Searched.push_back(I);
  for (size_t I : Searched) {
    S["lithium.verify_fn_us"] +=
        time([&] { (void)C.verifyFunction(U.Fns[I], Search); });
    const lithium::EngineStats &ES = PR.Fns[I].Stats;
    S["engine.goal_steps"] += ES.GoalSteps;
    S["engine.rule_apps"] += ES.RuleApps;
    S["engine.rule.matches"] += static_cast<double>(ES.MatchesEvals);
    S["engine.subsume.memo_hit"] += static_cast<double>(ES.MemoHits);
    S["engine.subsume.memo_miss"] += static_cast<double>(ES.MemoMisses);
  }
  // The solver's call counters exist only under a trace session, so they
  // come from a separate, untimed pass.
  {
    trace::TraceSession TS;
    {
      trace::SessionScope Scope(&TS);
      for (size_t I : Searched)
        (void)C.verifyFunction(U.Fns[I], Search);
    }
    std::map<std::string, uint64_t> Ctr = TS.metrics().counters();
    S["solver.calls"] += static_cast<double>(Ctr["solver.calls"]);
    S["solver.proved"] += static_cast<double>(Ctr["solver.proved_auto"] +
                                              Ctr["solver.proved_manual"]);
  }

  // pure: re-prove each searched derivation's recorded side conditions
  // with a copy of the session solver configured for the function.
  for (size_t I : Searched) {
    const FnResult &R = PR.Fns[I];
    auto SIt = C.env().FnSpecs.find(R.Name);
    if (!R.Verified || R.Trusted || SIt == C.env().FnSpecs.end())
      continue;
    pure::PureSolver Solver = C.solver();
    Solver.setPortfolioMode(O.Opts.Portfolio);
    Solver.clearExtraSolvers();
    Solver.clearLemmas();
    for (const std::string &T : SIt->second->Tactics)
      if (T == "multiset_solver" || T == "set_solver")
        Solver.enableSolver(T);
    for (const pure::Lemma &L : specLemmas(C, R.Name))
      Solver.addLemma(L);
    for (const lithium::DerivStep &St : R.Deriv.Steps) {
      if (St.K != lithium::DerivStep::SideCond || !St.Prop)
        continue;
      pure::EvarEnv Env;
      S["pure.prove_us"] +=
          time([&] { (void)Solver.prove(St.Hyps, St.Prop, Env); });
      S["pure.side_conds"] += 1;
    }
  }

  // proofcheck: every derivation the op checked (rechecks of searched
  // functions and replays of store hits).
  ProofChecker PC(C.rules());
  for (const FnResult &R : PR.Fns) {
    if (!R.Verified || R.Trusted || R.Deriv.Steps.empty())
      continue;
    std::vector<pure::Lemma> Lemmas = specLemmas(C, R.Name);
    S["proofcheck.check_us"] += time([&] { (void)PC.check(R.Deriv, Lemmas); });
    S["proofcheck.steps"] += static_cast<double>(R.Deriv.Steps.size());
  }

  // store: each of the op's results through the serializer and through the
  // program's disk tier (envelope, temp-file write and rename on put;
  // read, envelope checks, deserialization and mtime refresh on get).
  for (size_t I = 0; I < PR.Fns.size(); ++I) {
    const FnResult &R = PR.Fns[I];
    const uint64_t Key = I + 1;
    std::string Payload;
    S["store.serialize_us"] +=
        time([&] { Payload = store::serializeFnResult(R); });
    FnResult Back;
    S["store.deserialize_us"] +=
        time([&] { (void)store::deserializeFnResult(Payload, Back); });
    S["store.put_us"] += time([&] { Disk.put(R.Name, Key, R); });
    std::error_code EC;
    const uintmax_t Bytes =
        std::filesystem::file_size(Disk.entryPath(R.Name, Key), EC);
    S["store.entry_bytes"] += EC ? 0.0 : static_cast<double>(Bytes);
    S["store.get_us"] += time([&] { (void)Disk.get(R.Name, Key, Back); });
  }
  Disk.clear();

  S["store.hits"] += PR.CacheHits;
  S["store.misses"] += PR.CacheMisses;
  S["store.replayed"] += PR.ReplayedHits;
  S["store.replay_failures"] += PR.ReplayFailures;
  S["store.corrupt_drops"] += PR.CorruptDrops;
  S["store.replay_ms"] += PR.ReplayMillis;

  double FnWallMs = 0;
  for (const FnResult &R : PR.Fns)
    FnWallMs += R.WallMillis;
  S["driver.fn_wall_ms"] += FnWallMs;
  S["driver.jobs_x_wall_ms"] += PR.JobsUsed * PR.WallMillis;
}

/// One simulated tool invocation. With \p Probe, the layer probes run on
/// the live session between the verification and the teardown, outside the
/// op wall.
bool runOp(const Op &O, const Unit &U, ProgramResult &PR, OpTiming &T,
           LayerProbe *Probe, Sums *S) {
  auto T0 = Clock::now();
  DiagnosticEngine Diags;
  std::unique_ptr<front::AnnotatedProgram> AP =
      front::compileSource(*O.Source, Diags);
  auto T1 = Clock::now();
  if (!AP)
    return false;
  auto C = std::make_unique<Checker>(*AP, Diags);
  if (O.Tier)
    C->adoptTierStack(nullptr, {O.Tier});
  auto T2 = Clock::now();
  const bool EnvOk = C->buildEnv();
  auto T3 = Clock::now();
  if (EnvOk)
    PR = C->verifyFunctions(U.Fns, O.Opts);
  auto T4 = Clock::now();
  if (Probe && EnvOk)
    Probe->run(O, U, *C, PR, *S);
  auto T5 = Clock::now();
  C.reset();
  auto T6 = Clock::now();
  AP.reset();
  auto T7 = Clock::now();
  T.CompileUs = usBetween(T0, T1);
  T.SessionUs = usBetween(T1, T2) + usBetween(T5, T6);
  T.EnvUs = usBetween(T2, T3);
  T.VerifyUs = usBetween(T3, T4);
  T.WallUs = usBetween(T0, T4) + usBetween(T5, T7);
  return EnvOk;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  explicit Workload(const Config &C) : Cfg(C) {}
  virtual ~Workload() = default;

  /// Builds fresh inputs and state; the returned ops (filling caches,
  /// warming up) run as part of the set-up.
  virtual bool prepare(std::string &Err) = 0;
  virtual std::vector<Op> setupOps() = 0;
  /// The ops of round \p R, in order.
  virtual std::vector<Op> round(uint64_t R) = 0;
  virtual void beforeOp(const Op &) {}
  virtual uint64_t inputsDigest() = 0;
  /// The tail percentile with at least ten samples beyond it at this
  /// workload's op count in a 10 to 60 second run.
  virtual double tailQuantile() const = 0;
  /// The store behaviour the op must show, known from how it was built.
  virtual bool storeOk(const Op &O, const ProgramResult &PR) const = 0;
  /// The verification jobs of every op.
  virtual unsigned jobs() const { return 1; }

  const Unit &unit(size_t I) const { return Units[I]; }

  /// The verdict oracle. \p OkFns counts the functions brought to their
  /// expected verdict.
  bool check(const Op &O, const ProgramResult &PR, unsigned &OkFns) {
    const Unit &U = Units[O.UnitIdx];
    OkFns = 0;
    std::string Why;
    if (PR.Fns.size() != U.Fns.size())
      Why = "result count";
    for (size_t I = 0; Why.empty() && I < U.Fns.size(); ++I) {
      const FnResult &R = PR.Fns[I];
      if (R.Name == U.Fns[I] && R.Verified == U.Expect[I] &&
          (!R.Verified || (R.Rechecked && R.RecheckOk)))
        ++OkFns;
      else
        Why = "verdict of " + U.Fns[I];
    }
    if (Why.empty() && !storeOk(O, PR))
      Why = "store: " + std::to_string(PR.CacheMisses) + " misses, " +
            std::to_string(PR.L2Hits) + " l2 hits, " +
            std::to_string(PR.ReplayedHits) + " replayed";
    // The schedule- and store-independent rendering must never change for
    // one input.
    const uint64_t H = fnv1a(PR.toStableJson());
    auto [It, New] = StableRef.emplace(U.Id, H);
    if (Why.empty() && !New && It->second != H)
      Why = "stable-json differs";
    if (!Why.empty() && ++Reported <= 5)
      fprintf(stderr, "perfbench: op on %s failed its oracle: %s\n",
              U.Id.c_str(), Why.c_str());
    return Why.empty();
  }

  uint64_t verdictsDigest() const {
    uint64_t H = fnv1a("");
    for (const auto &[Id, Hash] : StableRef) {
      H = fnv1a(Id, H);
      H = fnv1a(std::to_string(Hash), H);
    }
    return H;
  }

protected:
  void injectWrongVerdicts() {
    if (Cfg.InjectWrongVerdict)
      for (Unit &U : Units)
        if (!U.Expect.empty())
          U.Expect[0] = !U.Expect[0];
  }
  VerifyOptions baseOpts() const {
    VerifyOptions O;
    O.Recheck = true;
    O.Jobs = jobs();
    return O;
  }

  const Config &Cfg;
  std::vector<Unit> Units;
  std::map<std::string, uint64_t> StableRef;
  unsigned Reported = 0;
};

/// fig7_cold: the Figure-7 case studies, one fresh session each, one job,
/// no disk store; the seed permutes each round of the corpus.
class Fig7Cold final : public Workload {
public:
  using Workload::Workload;

  bool prepare(std::string &) override {
    Units = figure7Corpus();
    injectWrongVerdicts();
    return true;
  }
  std::vector<Op> setupOps() override { return round(0); }
  std::vector<Op> round(uint64_t R) override {
    Rng G(roundSeed(Cfg.Seed, R));
    std::vector<Op> Out;
    for (size_t I : permutation(G, Units.size())) {
      Op O;
      O.UnitIdx = I;
      O.Source = &Units[I].Source;
      O.Opts = baseOpts();
      Out.push_back(O);
    }
    return Out;
  }
  uint64_t inputsDigest() override {
    uint64_t H = fnv1a("fig7_cold");
    for (const Unit &U : Units)
      H = fnv1a(U.Source, fnv1a(U.Id, H));
    for (uint64_t R = 0; R < 16; ++R)
      for (const Op &O : round(R))
        H = fnv1a(Units[O.UnitIdx].Id, H);
    return H;
  }
  double tailQuantile() const override { return 0.99; }
  bool storeOk(const Op &O, const ProgramResult &PR) const override {
    return PR.CacheHits == 0 && PR.CacheMisses == PR.Fns.size();
  }
};

/// mono_cold: one seeded synthetic TU, cold each time: every op verifies
/// all functions with Cfg.Jobs jobs into a fresh, empty persistent tier.
class MonoCold final : public Workload {
public:
  using Workload::Workload;

  bool prepare(std::string &) override {
    Units = {generateMonorepo(Cfg.Seed, Cfg.MonoFunctions)};
    injectWrongVerdicts();
    return true;
  }
  std::vector<Op> setupOps() override { return round(0); }
  std::vector<Op> round(uint64_t) override {
    Op O;
    O.Source = &Units[0].Source;
    O.Opts = baseOpts();
    O.Tier = std::make_shared<EntryBytesTier>();
    return {O};
  }
  unsigned jobs() const override { return Cfg.Jobs; }
  uint64_t inputsDigest() override {
    uint64_t H = fnv1a(Units[0].Source, fnv1a("mono_cold"));
    for (bool E : Units[0].Expect)
      H = fnv1a(E ? "1" : "0", H);
    return H;
  }
  double tailQuantile() const override { return 0.9; }
  bool storeOk(const Op &O, const ProgramResult &PR) const override {
    return PR.CacheHits == 0 && PR.CacheMisses == PR.Fns.size() &&
           PR.CorruptDrops == 0;
  }
};

/// edit_warm: set-up fills the persistent tier for the corpus; each op
/// toggles one space at the start of a line inside one seeded function's
/// body and re-verifies that function's case study in a fresh session over
/// the same tier. Toggling keeps every source within one space per line of
/// the original, however many ops a run makes.
class EditWarm final : public Workload {
public:
  using Workload::Workload;

  bool prepare(std::string &Err) override {
    Units = figure7Corpus();
    injectWrongVerdicts();
    Sources.clear();
    for (const Unit &U : Units)
      Sources.push_back(U.Source);
    if (!findEditSites(Units, Sites, Err))
      return false;
    Indented.clear();
    Tier = std::make_shared<EntryBytesTier>();
    return true;
  }
  std::vector<Op> setupOps() override {
    std::vector<Op> Out;
    for (size_t I = 0; I < Units.size(); ++I)
      Out.push_back(op(I));
    return Out;
  }
  std::vector<Op> round(uint64_t R) override {
    Rng G(roundSeed(Cfg.Seed, R));
    std::vector<Op> Out;
    for (size_t SI : permutation(G, Sites.size())) {
      const EditSite &Site = Sites[SI];
      Op O = op(Site.UnitIdx);
      O.EditedFn = static_cast<int>(Site.FnIdx);
      O.EditLine = Site.Lines[G.below(Site.Lines.size())];
      Out.push_back(O);
    }
    return Out;
  }
  void beforeOp(const Op &O) override {
    if (O.EditedFn < 0)
      return;
    // The tier keeps only each function's latest entry, so removing the
    // space again is a miss just like adding it.
    const std::pair<size_t, unsigned> At{O.UnitIdx, O.EditLine};
    const bool Indent = Indented.insert(At).second;
    if (!Indent)
      Indented.erase(At);
    toggleIndent(Sources[O.UnitIdx], O.EditLine, Indent);
  }
  uint64_t inputsDigest() override {
    uint64_t H = fnv1a("edit_warm");
    for (const Unit &U : Units)
      H = fnv1a(U.Source, fnv1a(U.Id, H));
    for (uint64_t R = 0; R < 16; ++R)
      for (const Op &O : round(R))
        H = fnv1a(Units[O.UnitIdx].Fns[O.EditedFn] + ":" +
                      std::to_string(O.EditLine),
                  H);
    return H;
  }
  double tailQuantile() const override { return 0.99; }
  bool storeOk(const Op &O, const ProgramResult &PR) const override {
    const size_t N = PR.Fns.size();
    if (O.EditedFn < 0) // set-up: cold fill
      return PR.CacheHits == 0 && PR.CacheMisses == N;
    for (size_t I = 0; I < N; ++I)
      if (PR.Fns[I].CacheHit != (static_cast<int>(I) != O.EditedFn))
        return false;
    return PR.CacheMisses == 1 && PR.L2Hits == N - 1 &&
           PR.ReplayedHits == N - 1 && PR.ReplayFailures == 0 &&
           PR.CorruptDrops == 0;
  }

private:
  Op op(size_t UnitIdx) const {
    Op O;
    O.UnitIdx = UnitIdx;
    O.Source = &Sources[UnitIdx];
    O.Opts = baseOpts();
    O.Tier = Tier;
    return O;
  }

  std::vector<std::string> Sources; ///< current (edited) source per unit
  std::vector<EditSite> Sites;
  /// (unit, line) pairs that currently carry the extra space.
  std::set<std::pair<size_t, unsigned>> Indented;
  std::shared_ptr<EntryBytesTier> Tier;
};

std::unique_ptr<Workload> makeWorkload(const Config &C) {
  if (C.Workload == "fig7_cold")
    return std::make_unique<Fig7Cold>(C);
  if (C.Workload == "mono_cold")
    return std::make_unique<MonoCold>(C);
  if (C.Workload == "edit_warm")
    return std::make_unique<EditWarm>(C);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// The measurement loop
//===----------------------------------------------------------------------===//

struct RunState {
  uint64_t Attempted = 0, Failed = 0;
};

/// Runs one op through the oracle and the bookkeeping shared by all modes.
bool runChecked(Workload &W, const Op &O, RunState &RS, OpTiming &T,
                unsigned &OkFns, LayerProbe *Probe = nullptr,
                Sums *S = nullptr) {
  W.beforeOp(O);
  ProgramResult PR;
  const bool Ran = runOp(O, W.unit(O.UnitIdx), PR, T, Probe, S);
  OkFns = 0;
  const bool Ok = Ran && W.check(O, PR, OkFns);
  ++RS.Attempted;
  RS.Failed += !Ok;
  return Ok;
}

/// Peak resident memory of this process image (VmHWM). Unlike ru_maxrss it
/// restarts at exec, so the parent that launched the harness is not counted.
double peakRssMb() {
  unsigned long Kb = 0;
  if (FILE *F = fopen("/proc/self/status", "r")) {
    char Line[256];
    while (fgets(Line, sizeof(Line), F))
      if (sscanf(Line, "VmHWM: %lu kB", &Kb) == 1)
        break;
    fclose(F);
  }
  return static_cast<double>(Kb) / 1024.0;
}

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 9;

} // namespace

bool perfbench::runWorkload(const Config &C, Report &Out, std::string &Err) {
  std::unique_ptr<Workload> W = makeWorkload(C);
  if (!W) {
    Err = "unknown workload '" + C.Workload + "'";
    return false;
  }

  RunState RS;
  OpTiming T;
  unsigned OkFns = 0;

  // Set-up, several times; the last one's state is measured. Each set-up
  // and each untraced round is timed next to a run of the reference kernel
  // and divided by the host's slowdown it shows.
  HostGauge Gauge(W->jobs());
  Out.Jobs = W->jobs();
  std::vector<double> SetupS, RawSetupS;
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    const double Slow = Gauge.slowdown();
    auto T0 = Clock::now();
    if (!W->prepare(Err))
      return false;
    for (const Op &O : W->setupOps())
      runChecked(*W, O, RS, T, OkFns);
    RawSetupS.push_back(usBetween(T0, Clock::now()) / 1e6);
    SetupS.push_back(RawSetupS.back() / Slow);
  }
  Out.InputsDigest = W->inputsDigest();
  Out.TailName =
      "p" + std::to_string(std::lround(W->tailQuantile() * 100));

  const auto Start = Clock::now();
  auto elapsedS = [&] { return usBetween(Start, Clock::now()) / 1e6; };

  if (!C.Trace) {
    std::vector<double> OpMs, RoundRate, RawOpMs, RawRoundRate;
    uint64_t R = 0;
    do {
      const double Slow = Gauge.slowdown();
      double RoundUs = 0;
      unsigned RoundFns = 0;
      for (const Op &O : W->round(R)) {
        runChecked(*W, O, RS, T, OkFns);
        RawOpMs.push_back(T.WallUs / 1000.0);
        OpMs.push_back(RawOpMs.back() / Slow);
        RoundUs += T.WallUs;
        RoundFns += OkFns;
      }
      RawRoundRate.push_back(RoundFns / (RoundUs / 1e6));
      RoundRate.push_back(RawRoundRate.back() * Slow);
      ++R;
    } while (elapsedS() < C.Seconds);
    Out.Rounds = R;
    const double Q = W->tailQuantile();
    Out.TailSamplesBeyond = static_cast<uint64_t>(
        std::floor(static_cast<double>(OpMs.size()) * (1.0 - Q)));
    Out.ReferenceKernelUs = quantile(Gauge.KernelUs, 0.5);
    Out.Raw = {
        {"fns_per_s", quantile(RawRoundRate, 0.5), "1/s"},
        {"op_p50_ms", quantile(RawOpMs, 0.5), "ms"},
        {"op_tail_ms", quantile(RawOpMs, Q), "ms"},
        {"setup_s", quantile(RawSetupS, 0.5), "s"},
    };
    Out.Metrics = {
        {"fns_per_s", quantile(RoundRate, 0.5), "1/s"},
        {"op_p50_ms", quantile(OpMs, 0.5), "ms"},
        {"op_tail_ms", quantile(OpMs, Q), "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", quantile(SetupS, 0.5), "s"},
        {"ok_op_frac",
         static_cast<double>(RS.Attempted - RS.Failed) /
             static_cast<double>(RS.Attempted),
         "ratio"},
    };
  } else {
    // Traced run: rounds alternate between untraced (op wall only) and
    // traced (op rows plus layer probes), so the overhead is measured on
    // the same round mix.
    LayerProbe Probe(C.ProbeDir);
    Sums S;
    double UntracedUs = 0, TracedUs = 0;
    uint64_t UntracedOps = 0, TracedOps = 0, R = 0;
    do {
      const bool Traced = R % 2 == 1;
      for (const Op &O : W->round(R)) {
        if (!Traced) {
          runChecked(*W, O, RS, T, OkFns);
          UntracedUs += T.WallUs;
          ++UntracedOps;
          continue;
        }
        runChecked(*W, O, RS, T, OkFns, &Probe, &S);
        TracedUs += T.WallUs;
        ++TracedOps;
        S["frontend.compile_us"] += T.CompileUs;
        S["refinedc.session_us"] += T.SessionUs;
        S["refinedc.build_env_us"] += T.EnvUs;
        S["driver.verify_functions_us"] += T.VerifyUs;
        S["driver.serial_us"] += T.CompileUs + T.SessionUs + T.EnvUs;
        S["unattributed_us"] +=
            T.WallUs - T.CompileUs - T.SessionUs - T.EnvUs - T.VerifyUs;
      }
      ++R;
    } while (elapsedS() < C.Seconds || TracedOps == 0);
    Out.Rounds = R;
    Out.ReferenceKernelUs = quantile(Gauge.KernelUs, 0.5);
    const double N = static_cast<double>(TracedOps);
    auto perOp = [&](const char *Name) { return S[Name] / N; };
    auto ratio = [&](double Num, double Den) {
      return Den > 0 ? Num / Den : 0.0;
    };
    Out.Metrics = {
        {"frontend.compile_us", perOp("frontend.compile_us"), "us"},
        {"frontend.lex_us", perOp("frontend.lex_us"), "us"},
        {"frontend.tokens", perOp("frontend.tokens"), "count"},
        {"refinedc.session_us", perOp("refinedc.session_us"), "us"},
        {"refinedc.build_env_us", perOp("refinedc.build_env_us"), "us"},
        {"lithium.verify_fn_us", perOp("lithium.verify_fn_us"), "us"},
        {"engine.goal_steps", perOp("engine.goal_steps"), "count"},
        {"engine.rule_apps", perOp("engine.rule_apps"), "count"},
        {"engine.rule.matches", perOp("engine.rule.matches"), "count"},
        {"engine.subsume.memo_hit_ratio",
         ratio(S["engine.subsume.memo_hit"],
               S["engine.subsume.memo_hit"] + S["engine.subsume.memo_miss"]),
         "ratio"},
        {"pure.prove_us", perOp("pure.prove_us"), "us"},
        {"pure.side_conds", perOp("pure.side_conds"), "count"},
        {"pure.useful_ratio", ratio(S["solver.proved"], S["solver.calls"]),
         "ratio"},
        {"proofcheck.check_us", perOp("proofcheck.check_us"), "us"},
        {"proofcheck.steps", perOp("proofcheck.steps"), "count"},
        {"store.put_us", perOp("store.put_us"), "us"},
        {"store.serialize_us", perOp("store.serialize_us"), "us"},
        {"store.entry_bytes", perOp("store.entry_bytes"), "bytes"},
        {"store.get_us", perOp("store.get_us"), "us"},
        {"store.deserialize_us", perOp("store.deserialize_us"), "us"},
        {"store.hits", perOp("store.hits"), "count"},
        {"store.misses", perOp("store.misses"), "count"},
        {"store.replayed", perOp("store.replayed"), "count"},
        {"store.replay_failures", perOp("store.replay_failures"), "count"},
        {"store.corrupt_drops", perOp("store.corrupt_drops"), "count"},
        {"store.replay_ms", perOp("store.replay_ms"), "ms"},
        {"driver.verify_functions_us", perOp("driver.verify_functions_us"),
         "us"},
        {"driver.utilization",
         ratio(S["driver.fn_wall_ms"], S["driver.jobs_x_wall_ms"]), "ratio"},
        {"driver.serial_frac", ratio(S["driver.serial_us"], TracedUs),
         "ratio"},
        {"unattributed_us", perOp("unattributed_us"), "us"},
        {"trace.op_wall_us", TracedUs / N, "us"},
        {"trace.overhead_frac",
         ratio(TracedUs / N, UntracedUs / static_cast<double>(UntracedOps)) -
             1.0,
         "ratio"},
    };
  }
  Out.Attempted = RS.Attempted;
  Out.Failed = RS.Failed;
  Out.VerdictsDigest = W->verdictsDigest();
  return true;
}
