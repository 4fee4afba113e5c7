//===- perfbench/common.cpp - Measurements every workload shares ----------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/core/TranslationCache.h"
#include "simtvec/core/Vectorizer.h"
#include "simtvec/ir/Verifier.h"
#include "simtvec/parser/Parser.h"
#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/transforms/Passes.h"
#include "simtvec/vm/NativeCodegen.h"

#include "simtvec/support/Format.h"

#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

using namespace simtvec;

namespace perfbench {

const std::vector<BatchSpec> &uniformKernels() {
  // Scales put every warm native launch in the millisecond range on a
  // 4-core host, where the median is steady from run to run.
  static const std::vector<BatchSpec> V = {
      {"VectorAdd", 8}, {"Transpose", 4}, {"Histogram64", 2},
      {"BlackScholes", 4}, {"cp", 8},     {"Nbody", 2},
      {"MatrixMul", 2},  {"BinomialOptions", 2}};
  return V;
}

const std::vector<BatchSpec> &divergentKernels() {
  static const std::vector<BatchSpec> V = {
      {"Mandelbrot", 16}, {"LoopTrip", 4},        {"Bfs", 4},
      {"Spmv", 4},        {"MersenneTwister", 8}, {"Bitonic", 4}};
  return V;
}

KernelCase makeCase(const Workload &W, uint32_t Scale) {
  KernelCase K;
  K.W = &W;
  K.Scale = Scale;
  K.Inst = W.Make(Scale);
  K.Initial.assign(K.Inst->Dev->data(),
                   K.Inst->Dev->data() + K.Inst->Dev->size());
  return K;
}

TranslationCache::Key defaultKey(const std::string &Kernel, uint32_t Width,
                                 const std::string &Plan) {
  TranslationCache::Key K;
  K.KernelName = Kernel;
  K.WarpSize = Width;
  K.Simd = resolveSimdPath(SimdMode::Auto);
  K.BranchPlan = Plan;
  return K;
}

const char *const GateCounters[4] = {"tc.compile", "tc.jit_compile",
                                     "autotune.explore",
                                     "autotune.branch_explore"};

std::map<std::string, uint64_t> counterSnapshot() {
  std::map<std::string, uint64_t> Out;
  for (auto &[Name, V] : MetricsRegistry::global().snapshot().Counters)
    Out[Name] = V;
  return Out;
}

uint64_t delta(const std::map<std::string, uint64_t> &A,
               const std::map<std::string, uint64_t> &B,
               const std::string &Name) {
  auto Get = [&](const std::map<std::string, uint64_t> &M) -> uint64_t {
    auto It = M.find(Name);
    return It == M.end() ? 0 : It->second;
  };
  return Get(B) - Get(A);
}

void warmGate(Ctx &C, const std::map<std::string, uint64_t> &Before,
              const std::map<std::string, uint64_t> &After) {
  for (const char *Name : GateCounters)
    if (uint64_t D = delta(Before, After, Name)) {
      C.GateFailed = true;
      C.Errors.push_back(formatString(
          "warm-state gate: %s moved by %llu during the measured phase", Name,
          static_cast<unsigned long long>(D)));
    }
}

void registryLayers(Ctx &C, const std::map<std::string, uint64_t> &Before,
                    const std::map<std::string, uint64_t> &After) {
  auto D = [&](const char *N) {
    return static_cast<double>(delta(Before, After, N));
  };
  double Launches = D("launch.count");
  size_t N = static_cast<size_t>(Launches);
  double PerLaunch = Launches > 0 ? 1.0 / Launches : 0;
  C.layer("core.em_branch_yields", D("em.branch_yields") * PerLaunch,
          "yields/launch", N);
  C.layer("core.em_barrier_yields", D("em.barrier_waits") * PerLaunch,
          "yields/launch", N);
  C.layer("runtime.pool_parks_per_launch", D("pool.parks") * PerLaunch,
          "parks/launch", N);
  double Hits = D("tc.hits"), Misses = D("tc.misses");
  C.layer("core.tc_hit_ratio", Hits + Misses > 0 ? Hits / (Hits + Misses) : 0,
          "ratio", static_cast<size_t>(Hits + Misses));
}

double coldFirstResult(Ctx &C, KernelCase &K, const std::string &StoreDir,
                       uint32_t Kind, bool *NativeOut) {
  ++C.Attempted;
  WorkloadInstance &I = *K.Inst;
  K.restore();
  std::vector<std::byte> Host(I.Dev->size());
  SpecializationOptions Spec;
  Spec.CacheDir = StoreDir;

  Expected<std::unique_ptr<Program>> P = Status::error("not compiled");
  Stream Str;
  LaunchFuture F;
  Status Sync = Status::success(), Copy = Status::success();
  LaunchOptions O;
  O.Workers = LaunchWorkers;
  double Secs = 0;
  {
    Request Root("cold.first_result", Kind);
    const double T0 = now();
    {
      Scope S("Program::compile", "runtime");
      P = Program::compile(K.W->Source, MachineModel{}, Spec);
    }
    if (!P) {
      C.fail(std::string(K.W->Name) + ": " + P.status().message());
      return -1;
    }
    {
      Scope S("Program::launchAsync", "runtime");
      F = (*P)->launchAsync(Str, *I.Dev, K.W->KernelName, I.Grid, I.Block,
                            I.Params, O);
    }
    {
      Scope S("Stream::synchronize", "runtime");
      Sync = Str.synchronize();
    }
    if (NativeOut) {
      auto E = (*P)->translationCache().peek(defaultKey(K.W->KernelName, 4));
      *NativeOut = E && E->nativeEntry();
    }
    {
      Scope S("Device::copyFromDevice", "runtime");
      Copy = I.Dev->tryCopyFromDevice(Host.data(), 0, Host.size());
    }
    Secs = now() - T0;
  }

  Expected<LaunchStats> R = F.get();
  std::string Err;
  if (Sync.isError() || Copy.isError() || !R) {
    C.fail(std::string(K.W->Name) + ": launch or copy failed");
    return -1;
  }
  if (!I.Check(*I.Dev, Err)) {
    C.fail(std::string(K.W->Name) + ": wrong output: " + Err);
    return -1;
  }
  // The checked arena must also be what reached host memory.
  if (std::memcmp(Host.data(), I.Dev->data(), Host.size()) != 0) {
    C.fail(std::string(K.W->Name) + ": copy back differs from the arena");
    return -1;
  }
  return Secs;
}

CpuPin::CpuPin() {
  const int Cpu = sched_getcpu();
  if (Cpu < 0)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t Tid = std::stoi(E.path().filename().string());
    cpu_set_t Old;
    if (sched_getaffinity(Tid, sizeof Old, &Old) == 0 &&
        sched_setaffinity(Tid, sizeof One, &One) == 0)
      Saved.push_back({Tid, Old});
  }
}

CpuPin::~CpuPin() {
  for (auto &[Tid, Old] : Saved)
    sched_setaffinity(Tid, sizeof Old, &Old);
}

std::string freshDir(const Ctx &C, const std::string &Name) {
  static unsigned Counter = 0;
  std::string D = C.TmpDir + "/" + Name + "-" + std::to_string(++Counter);
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

TraceSlice::TraceSlice(Ctx &C, const char *Label, bool Measured)
    : C(C), Label(Label), Measured(Measured) {
  trace::startSession();
}

TraceSlice::~TraceSlice() {
  trace::endSession();
  std::vector<trace::ThreadEvents> Threads = trace::collect();
  for (const trace::ThreadEvents &T : Threads)
    C.TraceDropped += T.Dropped;
  if (Measured)
    C.Fold.add(Threads);
  if (!C.TraceJson.count(Label))
    C.TraceJson[Label] = trace::toJson();
}

namespace {

template <typename Fn> double timed(Fn &&F) {
  double T0 = now();
  F();
  return now() - T0;
}

} // namespace

void coldProbe(Ctx &C, std::vector<KernelCase> &Cases, unsigned Reps) {
  const std::string Stored = freshDir(C, "probe-store");
  std::vector<std::vector<double>> Empty(Cases.size()), Warm(Cases.size());
  // The populating pass is itself an empty-store first result.
  for (size_t I = 0; I < Cases.size(); ++I)
    if (double S = coldFirstResult(C, Cases[I], Stored, 0); S >= 0)
      Empty[I].push_back(S);
  std::vector<size_t> Order(Cases.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  Rng R(C.Seed ^ 0xc01dull);
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    R.shuffle(Order);
    for (size_t I : Order) {
      std::string Dir = freshDir(C, "empty");
      double S = coldFirstResult(C, Cases[I], Dir, 0);
      std::filesystem::remove_all(Dir);
      if (S >= 0)
        Empty[I].push_back(S);
      if ((S = coldFirstResult(C, Cases[I], Stored, 0)) >= 0)
        Warm[I].push_back(S);
    }
  }
  std::filesystem::remove_all(Stored);
  std::vector<double> EM, WM;
  size_t NE = 0, NW = 0;
  for (size_t I = 0; I < Cases.size(); ++I) {
    EM.push_back(median(Empty[I]));
    WM.push_back(median(Warm[I]));
    NE += Empty[I].size();
    NW += Warm[I].size();
  }
  C.layer("first_result_s", geomean(EM), "s", NE);
  C.layer("first_result_stored_s", geomean(WM), "s", NW);
}

void layerProbes(Ctx &C, std::vector<KernelCase> &Cases,
                 const std::vector<std::string> &Plans, bool NeedRuntime,
                 bool NeedServe, bool NeedJit) {
  const MachineModel Machine{};
  std::vector<double> Parse, Verify, Prepare, Meld, Vectorize, Miss, Hit,
      StoreHit, Emit, EmitBytes, Compile;
  uint64_t DiskHits = 0, DiskLookups = 0;
  std::optional<TraceSlice> Slice;
  Slice.emplace(C, "layers", /*Measured=*/false);
  const std::string Store = freshDir(C, "layer-store");
  for (size_t I = 0; I < Cases.size(); ++I) {
    const Workload &W = *Cases[I].W;
    const std::string &Plan = Plans[I];
    std::unique_ptr<Module> M;
    Parse.push_back(timed([&] {
      Scope S("parseModule", "parser");
      M = parseModule(W.Source).take();
    }));
    Verify.push_back(timed([&] {
      Scope S("verifyModule", "parser");
      (void)verifyModule(*M);
    }));
    Kernel Cl = *M->findKernel(W.KernelName);
    double Prep = timed([&] {
      Scope S("runPredicateToSelect+runBarrierSplit", "transforms");
      runPredicateToSelect(Cl);
      runBarrierSplit(Cl);
    });
    MeldResult MR;
    Meld.push_back(timed([&] {
      Scope S("runControlFlowMeld", "transforms");
      MR = runControlFlowMeld(Cl, Plan);
    }));
    std::unique_ptr<Kernel> V;
    Vectorize.push_back(timed([&] {
      Scope S("vectorizeKernel", "core");
      VectorizeOptions VO;
      VO.WarpSize = 4;
      V = vectorizeKernel(Cl, SpecializationPlan::build(Cl, &MR), VO);
    }));
    Prep += timed([&] {
      Scope S("runCleanupPipeline", "transforms");
      runCleanupPipeline(*V);
    });
    Prepare.push_back(Prep);

    const TranslationCache::Key Key = defaultKey(W.KernelName, 4, Plan);
    TranslationCache TC(*M, Machine);
    std::shared_ptr<const KernelExec> Exec;
    Miss.push_back(timed([&] {
      Scope S("TranslationCache::get(miss)", "core");
      Exec = *TC.get(Key);
    }));
    Hit.push_back(timed([&] {
      Scope S("TranslationCache::get(hit)", "core");
      (void)TC.get(Key);
    }));
    std::string Src;
    Emit.push_back(timed([&] {
      Scope S("emitNativeSource", "vm");
      Src = emitNativeSource(*Exec, Machine, 0);
    }));
    EmitBytes.push_back(static_cast<double>(Src.size()));

    SpecializationOptions SO;
    SO.CacheDir = Store;
    {
      SpecializationService Svc(*M, Machine, SO);
      TranslationCache Writer(*M, Machine);
      Writer.setSpecializationService(&Svc);
      (void)Writer.get(Key); // compiles and publishes the artifact
    }
    SpecializationService Svc(*M, Machine, SO);
    TranslationCache Reader(*M, Machine);
    Reader.setSpecializationService(&Svc);
    StoreHit.push_back(timed([&] {
      Scope S("TranslationCache::get(store)", "core");
      (void)Reader.get(Key);
    }));
    DiskHits += Svc.stats().DiskHits;
    DiskLookups += Svc.stats().DiskHits + Svc.stats().DiskMisses;

    Compile.push_back(timed([&] {
      Scope S("Program::compile", "runtime");
      (void)Program::compile(W.Source, Machine, SpecializationOptions());
    }));
  }
  std::filesystem::remove_all(Store);
  size_t N = Cases.size();
  C.layer("parser.parse_s", median(Parse), "s", N);
  C.layer("parser.verify_s", median(Verify), "s", N);
  C.layer("transforms.prepare_s", median(Prepare), "s", N);
  C.layer("transforms.meld_s", median(Meld), "s", N);
  C.layer("core.vectorize_s", median(Vectorize), "s", N);
  C.layer("core.tc_miss_s", median(Miss), "s", N);
  C.layer("core.tc_hit_s", median(Hit), "s", N);
  C.layer("core.tc_store_hit_s", median(StoreHit), "s", N);
  C.layer("core.tc_disk_hit_ratio",
          DiskLookups ? static_cast<double>(DiskHits) /
                            static_cast<double>(DiskLookups)
                      : 0,
          "ratio", DiskLookups);
  C.layer("vm.jit_emit_s", median(Emit), "s", N);
  C.layer("vm.jit_source_bytes", median(EmitBytes), "bytes", N);
  C.layer("runtime.compile_s", median(Compile), "s", N);

  // Device copies: 1 MiB each way, the serving workload's bulk size.
  {
    const size_t Bytes = 1 << 20;
    Device Dev(4 << 20);
    uint64_t A = Dev.alloc(Bytes);
    std::vector<std::byte> Host(Bytes, std::byte{7});
    std::vector<double> In, Out;
    for (int Rep = 0; Rep < 32; ++Rep) {
      In.push_back(timed([&] {
        Scope S("Device::copyToDevice", "runtime");
        Dev.copyToDevice(A, Host.data(), Bytes);
      }));
      Out.push_back(timed([&] {
        Scope S("Device::copyFromDevice", "runtime");
        Dev.copyFromDevice(Host.data(), A, Bytes);
      }));
    }
    C.layer("runtime.copy_in_gbps", Bytes / median(In) * 1e-9, "GB/s", 32);
    C.layer("runtime.copy_out_gbps", Bytes / median(Out) * 1e-9, "GB/s", 32);
  }

  // Submit and synchronize of warm interpreted launches (the interpreter
  // keeps the probe free of background compiles).
  if (NeedRuntime) {
    KernelCase &K = Cases.front();
    auto P = Program::compile(K.W->Source, Machine, SpecializationOptions());
    LaunchOptions O;
    O.Jit = JitMode::Interp;
    Stream S;
    std::vector<double> Submit, Wait;
    for (int Rep = 0; Rep < 33; ++Rep) {
      K.restore();
      LaunchFuture F;
      double Sub = timed([&] {
        Scope Sp("Program::launchAsync", "runtime");
        F = (*P)->launchAsync(S, *K.Inst->Dev, K.W->KernelName, K.Inst->Grid,
                              K.Inst->Block, K.Inst->Params, O);
      });
      double Wt = timed([&] {
        Scope Sp("Stream::synchronize", "runtime");
        (void)S.synchronize();
      });
      if (Rep) { // the first launch compiles
        Submit.push_back(Sub);
        Wait.push_back(Wt);
      }
    }
    C.layer("runtime.submit_s", median(Submit), "s", Submit.size());
    C.layer("runtime.sync_wait_s", median(Wait), "s", Wait.size());
  }

  Slice.reset();

  if (NeedServe)
    serveProbe(C);

  // Time from a program's first launch until the JIT published (or
  // declined) its width-4 specialization, against an empty store.
  if (NeedJit) {
    KernelCase &K = Cases.front();
    SpecializationOptions SO;
    SO.CacheDir = freshDir(C, "jit-store");
    auto P = Program::compile(K.W->Source, Machine, SO);
    const double T0 = now();
    double Ready = -1;
    for (int Launch = 0; Launch < 2; ++Launch) {
      K.restore();
      (void)(*P)->launch(*K.Inst->Dev, K.W->KernelName, K.Inst->Grid,
                         K.Inst->Block, K.Inst->Params);
    }
    auto Exec = (*P)->translationCache().peek(defaultKey(K.W->KernelName, 4));
    while (Exec && now() - T0 < 120) {
      JitState St = Exec->jitState();
      if (St == JitState::Ready || St == JitState::Failed) {
        Ready = now() - T0;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    WorkerPool::global().drain();
    C.layer("core.jit_ready_s", Ready, "s", 1);
    std::filesystem::remove_all(SO.CacheDir);
  }
}

void interpLaunchProbe(Ctx &C, const std::vector<std::string> &Measured) {
  std::vector<BatchSpec> All = uniformKernels();
  All.insert(All.end(), divergentKernels().begin(), divergentKernels().end());
  for (const BatchSpec &B : All) {
    if (std::find(Measured.begin(), Measured.end(), B.Name) != Measured.end())
      continue;
    KernelCase K = makeCase(*findWorkload(B.Name), B.Scale);
    auto P = Program::compile(K.W->Source, MachineModel{},
                              SpecializationOptions());
    LaunchOptions O;
    O.Jit = JitMode::Interp;
    std::vector<double> L;
    TraceSlice Slice(C, "interp", /*Measured=*/false);
    for (int Rep = 0; Rep < 4; ++Rep) {
      K.restore();
      double S = timed([&] {
        Scope Sp("Program::launch(interp)", "vm");
        (void)(*P)->launch(*K.Inst->Dev, K.W->KernelName, K.Inst->Grid,
                           K.Inst->Block, K.Inst->Params, O);
      });
      if (Rep)
        L.push_back(S);
    }
    C.layer(std::string("vm.") + B.Name + ".launch_s", median(L), "s",
            L.size());
  }
}

void traceSummary(Ctx &C,
                  const std::vector<std::pair<size_t, double>> &Untraced,
                  const std::vector<std::pair<size_t, double>> &Traced) {
  const size_t Ops = Traced.size();
  double PerOp = Ops ? 1.0 / static_cast<double>(Ops) : 0;
  for (const char *L :
       {"bench", "parser", "transforms", "core", "vm", "runtime", "serve"})
    C.layer(std::string("self.") + L + "_s", C.Fold.SelfSeconds[L] * PerOp,
            "s/op", Ops);
  const double Base = mixLatency(Untraced, 0.99, TailWindow).Median;
  const std::vector<std::pair<size_t, double>> &Path = C.Fold.Paths;
  C.layer("trace.path_coverage",
          Base > 0 ? mixLatency(Path, 0.99, TailWindow).Median / Base : 0,
          "ratio", Path.size());
  C.layer("trace.overhead_s",
          mixLatency(Traced, 0.99, TailWindow).Median - Base, "s", Ops);
}

} // namespace perfbench
