//===- perfbench/batch.cpp - Warm in-process batch workloads --------------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// batch_uniform and batch_divergent: one caller thread launches a fixed
/// kernel set round-robin (seeded order per round) on one stream, blocking
/// on each launch; each launch runs on LaunchWorkers workers. Setup
/// compiles the programs, lets the JIT publish or decline every
/// specialization and (for batch_divergent) lets the width and branch
/// tuners commit; the measured phase must then compile, JIT-compile and
/// explore nothing.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/support/Format.h"

#include <optional>
#include <thread>

using namespace simtvec;

namespace perfbench {
namespace {

struct BatchKernel {
  KernelCase K;
  std::unique_ptr<Program> P;
  double FirstLaunch = 0; ///< now() at this kernel's first setup launch
  double JitReady = -1;   ///< seconds from FirstLaunch until the JIT
                          ///< published or declined the measured code
  uint64_t SetupLaunches = 0;
  uint64_t TuneLaunches = 0; ///< launches until both tuners committed
  bool Native = false;
  std::vector<double> Lat, Submit, Wait;
  uint64_t ThreadEntries = 0, WarpLanes = 0;
};

/// Width and branch plan a launch of \p B resolves to right now.
std::pair<uint32_t, std::string> resolved(BatchKernel &B, bool Divergent) {
  if (!Divergent)
    return {4, ""};
  SpecializationService &S = B.P->specialization();
  const std::string &Name = B.K.W->KernelName;
  uint32_t W = S.committedWidth(Name);
  return {W, W ? S.committedBranchPlan(Name, W) : ""};
}

bool tunersCommitted(BatchKernel &B) {
  SpecializationService &S = B.P->specialization();
  const std::string &Name = B.K.W->KernelName;
  uint32_t W = S.committedWidth(Name);
  // A 1-wide warp cannot diverge, so width 1 never runs a branch trial.
  return W && (W == 1 || S.branchPlanCommitted(Name, W));
}

/// One blocking launch: restore inputs, launchAsync, synchronize, check.
/// Returns the launch's seconds, or a negative value (counted as failed)
/// on any error or wrong output.
double launchOnce(Ctx &C, Stream &S, BatchKernel &B, const LaunchOptions &O,
                  bool Measure, uint32_t Kind = 0) {
  WorkloadInstance &I = *B.K.Inst;
  B.K.restore();
  LaunchFuture F;
  Status Sync = Status::success();
  double T0, T1, T2;
  {
    Request Root("batch.launch", Kind);
    T0 = now();
    {
      Scope Sp("Program::launchAsync", "runtime");
      F = B.P->launchAsync(S, *I.Dev, B.K.W->KernelName, I.Grid, I.Block,
                           I.Params, O);
    }
    T1 = now();
    {
      Scope Sp("Stream::synchronize", "runtime");
      Sync = S.synchronize();
    }
    T2 = now();
  }
  ++C.Attempted;
  Expected<LaunchStats> R = F.get();
  std::string Err;
  bool OK = !Sync.isError() && R && I.Check(*I.Dev, Err);
  if (!OK) {
    C.fail(formatString("%s: %s", B.K.W->Name,
                        !R ? R.status().message().c_str()
                        : Sync.isError() ? Sync.message().c_str()
                                         : ("wrong output: " + Err).c_str()));
    return -1;
  }
  if (Measure) {
    B.Lat.push_back(T2 - T0);
    B.Submit.push_back(T1 - T0);
    B.Wait.push_back(T2 - T1);
    uint32_t Width = resolved(B, O.Policy == LaunchOptions::WidthPolicy::Auto)
                         .first;
    B.ThreadEntries += R->ThreadEntries;
    B.WarpLanes += R->WarpEntries * Width;
  }
  return T2 - T0;
}

/// The specialization a launch of \p B resolves to right now (null before
/// its first launch, or while the tuners have not committed).
std::shared_ptr<const KernelExec> measuredExec(BatchKernel &B,
                                               bool Divergent) {
  auto [W, Plan] = resolved(B, Divergent);
  return W ? B.P->translationCache().peek(
                 defaultKey(B.K.W->KernelName, W, Plan))
           : nullptr;
}

/// Runs rounds until the kernels are warm: every specialization the
/// measured phase uses was compiled and published native (or declined), the
/// tuners committed, and one whole round plus a pool drain moved none of
/// the gate counters.
bool warmUp(Ctx &C, Stream &S, std::vector<BatchKernel> &Ks,
            const LaunchOptions &O, bool Divergent) {
  // Stamps JitReady on every kernel whose measured specialization the JIT
  // settled since the last poll; true when all of them are settled.
  auto Poll = [&] {
    bool All = true;
    for (BatchKernel &B : Ks) {
      if (B.JitReady >= 0)
        continue;
      auto Exec = measuredExec(B, Divergent);
      JitState St = Exec ? Exec->jitState() : JitState::None;
      if (St == JitState::Ready || St == JitState::Failed)
        B.JitReady = now() - B.FirstLaunch;
      else
        All = false;
    }
    return All;
  };
  auto Launch = [&](BatchKernel &B) {
    if (!B.SetupLaunches)
      B.FirstLaunch = now();
    if (launchOnce(C, S, B, O, /*Measure=*/false) < 0)
      return false;
    ++B.SetupLaunches;
    if (!B.TuneLaunches && tunersCommitted(B))
      B.TuneLaunches = B.SetupLaunches;
    Poll();
    return true;
  };
  auto Round = [&] {
    for (BatchKernel &B : Ks)
      if (!Launch(B))
        return false;
    return true;
  };
  // Launch until the tuners commit; the second launch of each
  // specialization queues its background native compile.
  for (int R = 0; R < 400; ++R) {
    if (!Round())
      return false;
    bool All = true;
    for (BatchKernel &B : Ks)
      All &= tunersCommitted(B) || !Divergent;
    if (All && R >= 1)
      break;
  }
  // Poll every kernel's measured specialization together until the JIT
  // settles each one, launching again any that is not hot yet.
  while (!Poll()) {
    for (BatchKernel &B : Ks) {
      auto Exec = measuredExec(B, Divergent);
      if (B.JitReady < 0 && (!Exec || Exec->jitState() == JitState::None) &&
          !Launch(B))
        return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Quiesce: rounds plus a pool drain until nothing compiles any more.
  for (int Try = 0; Try < 50; ++Try) {
    auto Before = counterSnapshot();
    if (!Round())
      return false;
    WorkerPool::global().drain();
    auto After = counterSnapshot();
    bool Quiet = true;
    for (const char *N : GateCounters)
      Quiet &= delta(Before, After, N) == 0;
    if (Quiet)
      return true;
  }
  C.fail("setup: the kernels never reached a warm state");
  return false;
}

/// The measured phase: seeded round-robin until \p Seconds elapsed.
/// \p Seq receives (kernel, seconds) of every launch in launch order;
/// \p PerKernel also records each launch in its BatchKernel.
void measure(Ctx &C, Stream &S, std::vector<BatchKernel> &Ks,
             const LaunchOptions &O, Rng &R, double Seconds,
             std::vector<std::pair<size_t, double>> &Seq, bool PerKernel) {
  std::vector<size_t> Order(Ks.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  const double End = now() + Seconds;
  while (now() < End) {
    R.shuffle(Order);
    for (size_t I : Order)
      if (double L = launchOnce(C, S, Ks[I], O, PerKernel,
                                static_cast<uint32_t>(I));
          L >= 0)
        Seq.push_back({I, L});
  }
}

/// The measured phase's figures. The rate of threads and the median are
/// read off the least-disturbed stretch of the phase (quietScale); the
/// tail and the launch rate are the whole phase's.
struct Summary {
  double ThreadsPerS = 0, Rps = 0, Median = 0, Tail = 0, Quiet = 1;
  size_t N = 0;
};

Summary summarize(std::vector<BatchKernel> &Ks,
                  const std::vector<std::pair<size_t, double>> &All) {
  Summary Out;
  std::vector<std::vector<double>> Lat(Ks.size());
  double Busy = 0;
  for (auto &[K, L] : All) {
    Lat[K].push_back(L);
    Busy += L;
  }
  std::vector<double> Rates;
  for (size_t K = 0; K < Ks.size(); ++K)
    Rates.push_back(static_cast<double>(Ks[K].K.threads()) / median(Lat[K]));
  MixLatency Mix = mixLatency(All, 0.99, TailWindow);
  Out.Quiet = quietScale(All, QuietWindows);
  Out.ThreadsPerS = geomean(Rates) / Out.Quiet;
  Out.Median = Mix.Median * Out.Quiet;
  Out.Tail = Mix.Tail;
  Out.Rps = Busy > 0 ? static_cast<double>(All.size()) / Busy : 0;
  Out.N = All.size();
  return Out;
}

} // namespace

int runBatch(Ctx &C, bool Divergent) {
  const std::vector<BatchSpec> &Specs =
      Divergent ? divergentKernels() : uniformKernels();
  LaunchOptions O;
  O.Workers = LaunchWorkers;
  if (Divergent) {
    O.Policy = LaunchOptions::WidthPolicy::Auto;
    O.Branch = BranchMode::Pgo;
  }

  std::vector<BatchKernel> Ks;
  for (const BatchSpec &Spec : Specs) {
    BatchKernel B;
    B.K = makeCase(*findWorkload(Spec.Name), Spec.Scale);
    auto P = Program::compile(B.K.W->Source, MachineModel{},
                              SpecializationOptions::fromEnv());
    if (!P) {
      C.fail(std::string(Spec.Name) + ": " + P.status().message());
      return 1;
    }
    B.P = P.take();
    Ks.push_back(std::move(B));
  }
  Stream S;
  if (!warmUp(C, S, Ks, O, Divergent))
    return 1;
  for (BatchKernel &B : Ks) {
    auto [W, Plan] = resolved(B, Divergent);
    auto Exec =
        B.P->translationCache().peek(defaultKey(B.K.W->KernelName, W, Plan));
    B.Native = Exec && Exec->nativeEntry();
    C.Resolved.push_back(formatString(
        "%s: tier=%s width=%u plan=\"%s\"", B.K.W->Name,
        B.Native ? "native" : "interp", W, Plan.c_str()));
  }
  C.setupDone();

  Rng R(C.Seed);
  std::vector<std::pair<size_t, double>> Seq;
  if (!C.Trace) {
    const auto Before = counterSnapshot();
    {
      CpuPin Pin;
      measure(C, S, Ks, O, R, C.Seconds, Seq, /*PerKernel=*/false);
    }
    warmGate(C, Before, counterSnapshot());
    Summary U = summarize(Ks, Seq);
    C.e2e("threads_per_s", U.ThreadsPerS, "threads/s", U.N);
    C.e2e("rtt_p50_s", U.Median, "s", U.N);
    C.layer("rtt_p99_s", U.Tail, "s", U.N);
    C.layer("max_rps", U.Rps, "req/s", U.N);
    C.layer("quiet_scale", U.Quiet, "ratio", U.N);
    return 0;
  }

  // Traced run: untraced and traced slices alternate, half the run each,
  // so both halves see the same stretches of host time and their medians
  // differ by the tracing alone. The per-kernel rows come from the traced
  // half.
  const auto Before = counterSnapshot();
  std::optional<CpuPin> Pin(std::in_place);
  std::vector<std::pair<size_t, double>> UntracedOps;
  for (double Left = C.Seconds / 2; Left > 0; Left -= TraceSliceSeconds) {
    const double Slice = std::min(Left, TraceSliceSeconds);
    measure(C, S, Ks, O, R, Slice, UntracedOps, /*PerKernel=*/false);
    TraceSlice T(C, "measured", /*Measured=*/true);
    measure(C, S, Ks, O, R, Slice, Seq, /*PerKernel=*/true);
  }
  Pin.reset();
  const auto After = counterSnapshot();
  warmGate(C, Before, After);
  traceSummary(C, UntracedOps, Seq);
  const Summary U = summarize(Ks, UntracedOps);
  C.layer("rtt_p99_s", U.Tail, "s", U.N);
  C.layer("max_rps", U.Rps, "req/s", U.N);
  registryLayers(C, Before, After);
  std::vector<double> Submit, Wait, Ready, Tune;
  uint64_t Entries = 0, Lanes = 0, NativeLaunches = 0, Launches = 0;
  std::vector<std::string> Measured;
  for (BatchKernel &B : Ks) {
    C.layer(std::string("vm.") + B.K.W->Name + ".launch_s", median(B.Lat),
            "s", B.Lat.size());
    Measured.push_back(B.K.W->Name);
    Submit.insert(Submit.end(), B.Submit.begin(), B.Submit.end());
    Wait.insert(Wait.end(), B.Wait.begin(), B.Wait.end());
    if (!Divergent)
      Ready.push_back(B.JitReady);
    Tune.push_back(static_cast<double>(B.TuneLaunches));
    Entries += B.ThreadEntries;
    Lanes += B.WarpLanes;
    Launches += B.Lat.size();
    NativeLaunches += B.Native ? B.Lat.size() : 0;
  }
  C.layer("runtime.submit_s", median(Submit), "s", Submit.size());
  C.layer("runtime.sync_wait_s", median(Wait), "s", Wait.size());
  // batch_divergent's setup folds the tuners' exploration into the time
  // until its committed code is published; it reports the JIT probe instead.
  if (!Divergent)
    C.layer("core.jit_ready_s", median(Ready), "s", Ready.size());
  C.layer("core.tune_launches", Divergent ? median(Tune) : 0, "launches",
          Tune.size());
  C.layer("core.em_warp_fill",
          Lanes ? static_cast<double>(Entries) / static_cast<double>(Lanes)
                : 0,
          "ratio", Launches);
  C.layer("core.native_ratio",
          Launches ? static_cast<double>(NativeLaunches) /
                         static_cast<double>(Launches)
                   : 0,
          "ratio", Launches);

  std::vector<KernelCase> Cases;
  std::vector<std::string> Plans;
  for (BatchKernel &B : Ks) {
    Cases.push_back(makeCase(*B.K.W, 1));
    Plans.push_back(resolved(B, Divergent).second);
  }
  layerProbes(C, Cases, Plans, /*NeedRuntime=*/false, /*NeedServe=*/true,
              /*NeedJit=*/Divergent);
  interpLaunchProbe(C, Measured);
  coldProbe(C, Cases, 3);
  return 0;
}

} // namespace perfbench
