//===- main.cpp - Verifier benchmark entry point --------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///           [--probe-dir DIR] [--rev REV] [--mono-functions N]
///           [--inject-wrong-verdict]
///
/// Runs one workload and prints two JSON lines on stdout: the run's
/// provenance, then the result
/// {"correct", "attempted", "failed", "metrics"}. perfbench/run.py builds
/// this binary and is the normal way to run it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <string>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  fprintf(stderr, "perfbench: %s\n", Msg);
  fprintf(stderr,
          "usage: perfbench --workload {fig7_cold|mono_cold|edit_warm} "
          "--seed N --seconds S --trace 0|1 [--probe-dir DIR] [--rev REV] "
          "[--mono-functions N] [--inject-wrong-verdict]\n");
  exit(2);
}

uint64_t parseUnsigned(const char *Flag, const char *V, uint64_t Max) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = strtoull(V, &End, 10);
  if (!*V || *End || errno || N > Max || V[0] == '-')
    usage((std::string("bad value for ") + Flag).c_str());
  return N;
}

unsigned coreCount() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return 1;
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// The body of a {"name": {"value", "unit"}, ...} object.
std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out;
  for (const Metric &M : Ms) {
    char Buf[64];
    snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += (Out.empty() ? "" : ", ") + jsonString(M.Name) +
           ": {\"value\": " + Buf + ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  // One core is left to the rest of the system: with every core busy, any
  // other thread that wakes up stalls the parallel section, and the op walls
  // measure the scheduler.
  C.Jobs = std::max(1u, coreCount() - 1);
  std::string Rev = "unknown";
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--inject-wrong-verdict") {
      C.InjectWrongVerdict = true;
      continue;
    }
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = parseUnsigned("--seed", V, UINT64_MAX);
      HaveSeed = true;
    } else if (A == "--seconds") {
      C.Seconds = static_cast<double>(parseUnsigned("--seconds", V, 3600));
      HaveSeconds = true;
    } else if (A == "--trace") {
      C.Trace = parseUnsigned("--trace", V, 1) == 1;
      HaveTrace = true;
    } else if (A == "--rev") {
      Rev = V;
    } else if (A == "--mono-functions") {
      C.MonoFunctions =
          static_cast<unsigned>(parseUnsigned("--mono-functions", V, 100000));
    } else if (A == "--probe-dir") {
      C.ProbeDir = V;
    } else {
      usage(("unknown flag " + A).c_str());
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (C.Trace && C.ProbeDir.empty())
    usage("--trace 1 needs --probe-dir");

  Report R;
  std::string Err;
  if (!runWorkload(C, R, Err)) {
    fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 1;
  }

  printf("{\"provenance\": {\"git_rev\": %s, \"build_type\": %s, "
         "\"nproc\": %u, \"jobs\": %u, \"workload\": %s, \"seed\": %" PRIu64
         ", \"seconds\": %g, \"ops\": %" PRIu64 ", \"rounds\": %" PRIu64
         ", \"cache_tier\": \"memory\", \"traced\": %s, \"op_tail\": %s, "
         "\"tail_samples_beyond\": %" PRIu64 ", \"inputs_digest\": "
         "\"%016" PRIx64 "\", \"verdicts_digest\": \"%016" PRIx64 "\", "
         "\"reference_kernel_us\": %.17g, \"raw\": {%s}}}\n",
         jsonString(Rev).c_str(), jsonString(PERFBENCH_BUILD_TYPE).c_str(),
         coreCount(), R.Jobs, jsonString(C.Workload).c_str(), C.Seed,
         C.Seconds, R.Attempted, R.Rounds,
         C.Trace ? "true" : "false", jsonString(R.TailName).c_str(),
         R.TailSamplesBeyond, R.InputsDigest, R.VerdictsDigest,
         R.ReferenceKernelUs, metricsJson(R.Raw).c_str());
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {%s}}\n",
         R.Failed == 0 ? "true" : "false", R.Attempted, R.Failed,
         metricsJson(R.Metrics).c_str());
  return 0;
}
