//===- perfbench/cold.cpp - Cold-start workload ---------------------------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// cold_start: what every new process and every new tenant program pays.
/// Each op is a fresh Program over one registry kernel (scale 1): compile,
/// one launch at default options (the translation-cache misses for every
/// width it enters warps at happen inside it), and the arena copied back
/// to host memory. The JIT is never awaited (a program launches once, so it
/// never asks for the native tier). Iterations alternate between an empty
/// artifact store (a fresh directory per op) and the store setup populated,
/// where cache misses load from disk instead of compiling. Kernel order
/// within an iteration comes from the seed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <filesystem>
#include <optional>

using namespace simtvec;

namespace perfbench {
namespace {

struct ColdKernel {
  KernelCase K;
  std::vector<double> Empty, Stored;
};

struct Phase {
  /// (kernel * 2 + stored, seconds) of every op, in order.
  std::vector<std::pair<size_t, double>> All;
  size_t Ops = 0, NativeOps = 0;
  uint64_t DiskHits = 0, DiskLookups = 0;
};

/// Runs whole iterations over the kernels until \p Seconds elapsed;
/// \p Iter counts iterations across calls (odd ones use the stored store).
void measure(Ctx &C, std::vector<ColdKernel> &Ks, Rng &R, double Seconds,
             Phase &Out, unsigned &Iter) {
  std::vector<size_t> Order(Ks.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  const double End = now() + Seconds;
  for (; now() < End; ++Iter) {
    R.shuffle(Order);
    const bool Stored = Iter % 2;
    for (size_t I : Order) {
      ColdKernel &K = Ks[I];
      std::string Dir = Stored ? C.StoreDir : freshDir(C, "empty");
      auto Before = counterSnapshot();
      bool Native = false;
      const uint32_t Kind = static_cast<uint32_t>(I * 2 + Stored);
      double S = coldFirstResult(C, K.K, Dir, Kind, &Native);
      auto After = counterSnapshot();
      if (!Stored)
        std::filesystem::remove_all(Dir);
      if (S < 0)
        continue;
      (Stored ? K.Stored : K.Empty).push_back(S);
      Out.All.push_back({I * 2 + Stored, S});
      ++Out.Ops;
      Out.NativeOps += Native;
      if (Stored) {
        uint64_t Hits = delta(Before, After, "tc.disk_hit");
        Out.DiskHits += Hits;
        Out.DiskLookups += Hits + delta(Before, After, "tc.disk_miss");
      }
    }
  }
}

} // namespace

int runCold(Ctx &C) {
  std::vector<ColdKernel> Ks;
  for (const Workload &W : allWorkloads()) {
    ColdKernel K;
    K.K = makeCase(W, 1);
    Ks.push_back(std::move(K));
  }
  // Populate the run's store.
  for (ColdKernel &K : Ks)
    if (coldFirstResult(C, K.K, C.StoreDir, 0) < 0)
      return 1;
  C.Resolved.push_back("all 25 kernels: tier=interp (one launch per program, "
                       "the JIT never asked) width=4 plan=\"\"");
  C.setupDone();

  Rng R(C.Seed);
  const auto Before = counterSnapshot();
  Phase Untraced;
  unsigned Iter = 0;
  std::optional<CpuPin> Pin(std::in_place);
  measure(C, Ks, R, C.Seconds, Untraced, Iter);
  if (!C.Trace)
    Pin.reset();

  std::vector<double> FirstEmpty, FirstStored, Rates;
  size_t NE = 0, NS = 0;
  for (ColdKernel &K : Ks) {
    double E = median(K.Empty);
    FirstEmpty.push_back(E);
    FirstStored.push_back(median(K.Stored));
    Rates.push_back(E > 0 ? static_cast<double>(K.K.threads()) / E : 0);
    NE += K.Empty.size();
    NS += K.Stored.size();
  }
  double Busy = 0;
  for (auto &[K, S] : Untraced.All)
    Busy += S;
  MixLatency M = mixLatency(Untraced.All, 0.99, TailWindow);
  // The bounded figures are read off the least-disturbed stretch of the
  // phase.
  const double Quiet = quietScale(Untraced.All, QuietWindows);
  C.e2e("threads_per_s", geomean(Rates) / Quiet, "threads/s", NE);
  C.e2e("rtt_p50_s", M.Median * Quiet, "s", Untraced.All.size());
  C.layer("first_result_s", geomean(FirstEmpty), "s", NE);
  C.layer("first_result_stored_s", geomean(FirstStored), "s", NS);
  C.layer("rtt_p99_s", M.Tail, "s", Untraced.All.size());
  C.layer("max_rps", Busy > 0 ? static_cast<double>(Untraced.Ops) / Busy : 0,
          "req/s", Untraced.Ops);
  if (!C.Trace)
    C.layer("quiet_scale", Quiet, "ratio", Untraced.All.size());

  if (C.Trace) {
    Phase Traced;
    for (double Left = C.Seconds; Left > 0; Left -= TraceSliceSeconds) {
      TraceSlice Slice(C, "measured", /*Measured=*/true);
      measure(C, Ks, R, std::min(Left, TraceSliceSeconds), Traced, Iter);
    }
    Pin.reset();
    traceSummary(C, Untraced.All, Traced.All);
    const auto After = counterSnapshot();
    registryLayers(C, Before, After);
    C.layer("core.native_ratio",
            Traced.Ops ? static_cast<double>(Traced.NativeOps) /
                             static_cast<double>(Traced.Ops)
                       : 0,
            "ratio", Traced.Ops);
    C.layer("core.tune_launches", 0, "launches", 0);
    C.layer("core.em_warp_fill",
            static_cast<double>(delta(Before, After, "em.thread_entries")) /
                std::max<double>(
                    1, 4.0 * delta(Before, After, "em.warp_entries")),
            "ratio", static_cast<size_t>(delta(Before, After, "launch.count")));

    std::vector<KernelCase> Cases;
    for (ColdKernel &K : Ks)
      Cases.push_back(makeCase(*K.K.W, 1));
    layerProbes(C, Cases, std::vector<std::string>(Cases.size()),
                /*NeedRuntime=*/true, /*NeedServe=*/true, /*NeedJit=*/true);
    interpLaunchProbe(C, {});
    // The measured stored-store ops are the disk-hit ratio this workload
    // reports (overrides the probe's).
    C.layer("core.tc_disk_hit_ratio",
            Traced.DiskLookups ? static_cast<double>(Traced.DiskHits) /
                                     static_cast<double>(Traced.DiskLookups)
                               : 0,
            "ratio", Traced.DiskLookups);
  }
  return 0;
}

} // namespace perfbench
