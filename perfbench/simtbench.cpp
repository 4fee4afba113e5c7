//===- perfbench/simtbench.cpp - End-to-end benchmark program -------------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Usage:
///
///   simtbench --workload NAME --seed N --part P --seconds S --trace 0|1
///             --tmp DIR [--trace-out STEM]
///
/// Runs one workload (batch_uniform, batch_divergent, serve_mixed,
/// cold_start) in this process: set-up, then S measured seconds. \p --part
/// numbers the processes of one benchmark run (run.py starts several and
/// reports the median of each metric); seed and part together seed every
/// generated input. SIMTVEC_CACHE_DIR must name the run's
/// empty artifact store; the process changes into \p --tmp (the serving
/// socket and every temporary store live there). Prints a provenance line and
/// one `# name value unit samples` line per metric, then, as the last line,
/// the result object:
///
///   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
///
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
/// metrics (and writes the first trace session of each traced section as
/// Chrome trace JSON to STEM.<section>.json). A failed op, a
/// wrong output or a warm-state gate violation reports correct=false with
/// no metrics and exits 1. rtt_p99_s is a per-layer row: untraced runs
/// print it as a `#` line only (see perfbench/README.md).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/support/Branch.h"
#include "simtvec/support/Jit.h"
#include "simtvec/support/Simd.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace simtvec;
using namespace perfbench;

namespace {

/// The first `--version` line of the toolchain the JIT discovers (same
/// candidate order as the specialization service).
std::string jitToolchain() {
  for (const char *Cxx : {"c++", "g++", "clang++"}) {
    std::string Cmd = std::string(Cxx) + " --version 2>/dev/null";
    FILE *P = popen(Cmd.c_str(), "r");
    if (!P)
      continue;
    char Buf[256] = {0};
    bool Got = std::fgets(Buf, sizeof(Buf), P) != nullptr;
    pclose(P);
    if (!Got)
      continue;
    std::string Line = std::string(Cxx) + ": " + Buf;
    while (!Line.empty() && (Line.back() == '\n' || Line.back() == '\r'))
      Line.pop_back();
    return Line;
  }
  return "none";
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out.push_back('\\');
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out.push_back(Ch);
  }
  return Out;
}

void printProvenance(const Ctx &C) {
  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"nproc\": %u, \"pool_threads\": %u, \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"flags\": \"%s\", "
              "\"simtvec_native\": false, \"jit_toolchain\": \"%s\", "
              "\"jit\": \"%s\", \"simd\": \"%s\", \"branch\": \"%s\", "
              "\"resolved\": [",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              std::thread::hardware_concurrency(),
              WorkerPool::global().threadCount(), BENCH_CXX_ID,
              BENCH_BUILD_TYPE, BENCH_CXX_FLAGS,
              jsonEscape(jitToolchain()).c_str(),
              jitModeName(resolveJitMode(JitMode::Auto)),
              resolveSimdPath(SimdMode::Auto) == SimdPath::Vector ? "vector"
                                                                  : "scalar",
              branchModeName(resolveBranchMode(BranchMode::Auto)));
  for (size_t I = 0; I < C.Resolved.size(); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", jsonEscape(C.Resolved[I]).c_str());
  std::printf("]}}\n");
}

void printMetrics(const std::map<std::string, Metric> &Ms) {
  for (auto &[Name, M] : Ms)
    std::printf("# %-36s %-22.9g %-14s n=%zu\n", Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
}

void printResult(const Ctx &C, bool Correct,
                 const std::map<std::string, Metric> *Ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed));
  if (Ms) {
    bool First = true;
    for (auto &[Name, M] : *Ms) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  First ? "" : ", ", Name.c_str(), M.Value, M.Unit.c_str());
      First = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: simtbench --workload batch_uniform|batch_divergent|"
               "serve_mixed|cold_start --seed N [--part P] --seconds S "
               "--trace 0|1 --tmp DIR [--trace-out STEM]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Ctx C;
  C.ProcessStart = now();
  uint64_t Seed = 0, Part = 0;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    const char *V = I + 1 < argc ? argv[++I] : nullptr;
    if (!V)
      return usage();
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--part")
      Part = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(V, nullptr);
    else if (A == "--trace")
      C.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--tmp")
      C.TmpDir = V;
    else if (A == "--trace-out")
      C.TraceOut = V;
    else
      return usage();
  }
  if (C.Workload.empty() || C.TmpDir.empty() || !(C.Seconds > 0))
    return usage();
  C.Seed = Rng(Seed).next() ^ Part;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "simtbench: refusing to measure a sanitizer build\n");
  return 3;
#endif
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "simtbench: refusing to measure an unoptimized build\n");
  return 3;
#endif

  const char *Store = std::getenv("SIMTVEC_CACHE_DIR");
  if (!Store || !*Store) {
    std::fprintf(stderr, "simtbench: SIMTVEC_CACHE_DIR must name the run's "
                         "empty artifact store\n");
    return 2;
  }
  C.StoreDir = Store;
  if (::chdir(C.TmpDir.c_str()) != 0) {
    std::fprintf(stderr, "simtbench: cannot enter %s\n", C.TmpDir.c_str());
    return 2;
  }

  int RC;
  if (C.Workload == "batch_uniform")
    RC = runBatch(C, /*Divergent=*/false);
  else if (C.Workload == "batch_divergent")
    RC = runBatch(C, /*Divergent=*/true);
  else if (C.Workload == "serve_mixed")
    RC = runServe(C);
  else if (C.Workload == "cold_start")
    RC = runCold(C);
  else
    return usage();
  // Background compiles and governor passes run detached on the pool; let
  // them finish before the process (and its temporary stores) goes away.
  WorkerPool::global().drain();

  printProvenance(C);
  for (const std::string &E : C.Errors)
    std::fprintf(stderr, "simtbench: %s\n", E.c_str());
  const bool Correct = RC == 0 && !C.Failed && !C.GateFailed;
  if (!Correct) {
    printResult(C, false, nullptr);
    return 1;
  }

  if (C.Trace) {
    for (auto &[Label, Json] : C.TraceJson) {
      if (C.TraceOut.empty())
        break;
      std::string Path = C.TraceOut + "." + Label + ".json";
      FILE *F = std::fopen(Path.c_str(), "w");
      if (!F || std::fwrite(Json.data(), 1, Json.size(), F) != Json.size() ||
          std::fclose(F) != 0)
        std::fprintf(stderr, "simtbench: cannot write %s\n", Path.c_str());
    }
    C.layer("trace.dropped_events", static_cast<double>(C.TraceDropped),
            "events", 1);
    printMetrics(C.Layers);
    printResult(C, true, &C.Layers);
    return 0;
  }
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  C.e2e("setup_s", C.SetupSeconds, "s", 1);
  C.e2e("peak_rss_mb", static_cast<double>(RU.ru_maxrss) / 1024.0, "MiB", 1);
  printMetrics(C.EndToEnd);
  printMetrics(C.Layers);
  printResult(C, true, &C.EndToEnd);
  return 0;
}
