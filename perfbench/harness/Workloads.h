//===- Workloads.h - The verifier benchmark's workloads ---------*- C++ -*-===//
///
/// \file
/// Three closed-loop workloads, each driven by one client from this
/// process. An operation is one simulated tool invocation: compile the
/// source, construct a Checker, build its spec environment and verify the
/// unit's functions with Recheck on and the default portfolio. After every
/// operation its verdicts are checked against the answers the workload knows
/// from how it built the input.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Verification jobs of the monorepo workload (the host's cores but one).
  unsigned Jobs = 1;
  unsigned MonoFunctions = 1000;
  /// Directory of the traced run's probe disk tier (inside the checkout).
  std::string ProbeDir;
  /// Self-test hook: expect the wrong verdict for the first function of
  /// every unit, so the oracle must reject those operations.
  bool InjectWrongVerdict = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Provenance and identity, printed on the line before the result.
  uint64_t Rounds = 0;
  uint64_t InputsDigest = 0;
  /// Digest of every distinct input's toStableJson(); the same seed must
  /// reproduce it byte for byte.
  uint64_t VerdictsDigest = 0;
  std::string TailName;
  uint64_t TailSamplesBeyond = 0;
  unsigned Jobs = 1;
  /// Median wall time of the reference kernel over the run; the end-to-end
  /// times are divided by its ratio to the nominal time (Workloads.cpp).
  double ReferenceKernelUs = 0;
  /// Untraced runs: the timed end-to-end metrics as measured, before that
  /// division.
  std::vector<Metric> Raw;
};

/// Runs \p C.Workload for C.Seconds. False (with \p Err) when the workload
/// is unknown or its set-up fails; failed operations are not errors, they
/// are counted in the report.
bool runWorkload(const Config &C, Report &Out, std::string &Err);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
