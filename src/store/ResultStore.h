//===- ResultStore.h - Persistent verification-result store ---*- C++ -*-===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The result store behind the verification driver's memoization
/// (DESIGN.md, "Persistent verification store"). A store maps
/// (function name, content-hash key) to a previously computed FnResult;
/// the key already folds in the function body, its annotation closure, the
/// spec-environment fingerprint, and the session fingerprint (FnHash.h), so
/// a stale entry can never be *found* — it simply misses.
///
/// Tiers and trust:
///  - `MemoryResultStore` (L1): the per-session map the checker always had.
///    Entries were produced by this process; they are trusted as-is.
///  - `DiskResultStore` (L2): one file per entry under a cache directory,
///    written atomically (temp file + rename) so any number of processes
///    (verify_tool runs, verifyd) can share one directory — this is how
///    verification work is shared across processes. Entries are *untrusted
///    input*: the envelope (magic, format version, tool version, key,
///    checksum) only filters corruption and staleness; the checker replays
///    every surfaced derivation through the independent ProofChecker
///    before believing it — the paper's search-untrusted / checker-trusted
///    split, extended across process boundaries. The replay is only as
///    strong as ProofChecker::check (DESIGN.md, §Substitutions).
///  - The checker composes exactly two tiers (Checker::adoptTierStack):
///    the trusted L1 and at most one untrusted persistent tier (the disk
///    L2, or any other ResultStore a caller attaches). There is no
///    auto-promotion: the checker copies a persistent hit into L1 only
///    after the replay accepted it.
///
/// All stores are thread-safe; verification jobs probe at job start and
/// publish at job end through the same interface regardless of tier.
///
//===----------------------------------------------------------------------===//

#ifndef RCC_STORE_RESULTSTORE_H
#define RCC_STORE_RESULTSTORE_H

#include "refinedc/Result.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace rcc::store {

/// Lifetime counters of one store instance (monotonic; relaxed atomics,
/// mirrored into the trace MetricsRegistry by the checker after each run).
struct StoreCounters {
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Puts{0};
  /// Entries found but rejected: truncated/bit-flipped payloads, checksum
  /// mismatches, foreign format or tool versions, key/name mismatches.
  /// Rejected files are unlinked (a corrupt entry must not miss forever).
  std::atomic<uint64_t> CorruptDrops{0};
  /// Entries removed by the GC path (DiskResultStore::gc).
  std::atomic<uint64_t> Evictions{0};
};

/// One tier of the result store.
class ResultStore {
public:
  virtual ~ResultStore() = default;

  /// Probes for (Name, Key). True on a hit, with \p Out filled.
  virtual bool get(const std::string &Name, uint64_t Key,
                   refinedc::FnResult &Out) = 0;
  /// Publishes a result (overwriting any entry for Name).
  virtual void put(const std::string &Name, uint64_t Key,
                   const refinedc::FnResult &R) = 0;
  /// Removes the entry for (Name, Key) if present (e.g. after a failed
  /// replay).
  virtual void drop(const std::string &Name, uint64_t Key) = 0;
  /// Drops every entry. Session invalidation clears only in-memory tiers;
  /// disk tiers self-invalidate through their keys.
  virtual void clear() = 0;
  /// Short tier label for metrics/trace names ("l1", "l2").
  virtual const char *tierName() const = 0;

  const StoreCounters &counters() const { return Counters; }

protected:
  StoreCounters Counters;
};

/// L1: the in-memory session tier (one entry per function name, exactly
/// the semantics of the pre-store session cache).
class MemoryResultStore final : public ResultStore {
public:
  bool get(const std::string &Name, uint64_t Key,
           refinedc::FnResult &Out) override;
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R) override;
  void drop(const std::string &Name, uint64_t Key) override;
  void clear() override;
  const char *tierName() const override { return "l1"; }

private:
  std::mutex M;
  std::map<std::string, std::pair<uint64_t, refinedc::FnResult>> Entries;
};

/// Outcome of one GC pass over a cache directory.
struct GcStats {
  uint64_t BytesBefore = 0; ///< total .rcv bytes before the pass
  uint64_t BytesAfter = 0;  ///< total .rcv bytes after the pass
  unsigned Evicted = 0;     ///< entries unlinked by the pass
};

/// L2: one file per (name, key) under \p Dir, named
/// `<sanitized-name>.<key-hex>.rcv`. Writers write to a process-unique
/// temp file and atomically rename it into place, so any number of
/// processes sharing a directory can never expose a half-written entry.
class DiskResultStore final : public ResultStore {
public:
  explicit DiskResultStore(std::string Dir);

  bool get(const std::string &Name, uint64_t Key,
           refinedc::FnResult &Out) override;
  void put(const std::string &Name, uint64_t Key,
           const refinedc::FnResult &R) override;
  void drop(const std::string &Name, uint64_t Key) override;
  /// Unlinks every .rcv entry under the directory (testing/maintenance;
  /// never called by session invalidation).
  void clear() override;
  const char *tierName() const override { return "l2"; }

  const std::string &dir() const { return Dir; }
  /// The entry path for (Name, Key) — exposed for tests that corrupt or
  /// truncate entries on purpose.
  std::string entryPath(const std::string &Name, uint64_t Key) const;

  /// Total bytes of .rcv entries currently under the directory.
  uint64_t sizeBytes() const;
  /// Evicts least-recently-used entries (ordered by file mtime; `get`
  /// refreshes an entry's mtime on every hit, so recency tracks use, not
  /// just creation) until the directory holds at most \p MaxBytes of
  /// entries. A long-lived daemon calls this after every revision so its
  /// cache directory cannot grow without bound (`verifyd
  /// --cache-max-bytes`). MaxBytes = 0 evicts everything.
  GcStats gc(uint64_t MaxBytes);

private:
  std::string Dir;
  std::atomic<uint64_t> TmpCounter{0};
};

} // namespace rcc::store

#endif // RCC_STORE_RESULTSTORE_H
