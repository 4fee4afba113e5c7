//===- perfbench/serve.cpp - Open-loop serving workload -------------------===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// serve_mixed: an in-process ServeDaemon driven open-loop over its Unix
/// socket. One generator thread per tenant connection (at most nproc)
/// follows a seeded Poisson schedule at each rate of a fixed ladder; a
/// request is timed from when it was due, so a stalled connection charges
/// its wait to every request queued behind it. Three request types:
///
///   small   copyIn 4 KiB, launch, copyOut 4 KiB    (most requests)
///   launch  launch + synchronize                    (launch-only)
///   bulk    copyIn 1 MiB, trivial launch, copyOut 1 MiB (a minority)
///
/// Every reply is checked against a host-computed expected buffer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "simtvec/runtime/WorkerPool.h"
#include "simtvec/serve/Client.h"
#include "simtvec/serve/Server.h"
#include "simtvec/support/Format.h"

#include <array>
#include <tuple>
#include <thread>

using namespace simtvec;
using namespace simtvec::serve;

namespace perfbench {
namespace {

/// out[i] = in[i] * k + 1 for i < n.
const char *const MadOutSrc = R"(
.kernel mad_out (.param .u64 in, .param .u64 out, .param .u32 n, .param .u32 k)
{
  .reg .u32 %i, %n, %v, %k;
  .reg .u64 %p, %q, %off;
  .reg .pred %c;
entry:
  mov.u32 %i, %tid.x;
  mov.u32 %n, %ntid.x;
  mul.u32 %n, %n, %ctaid.x;
  add.u32 %i, %i, %n;
  ld.param.u32 %n, [n];
  setp.ge.u32 %c, %i, %n;
  @%c bra done, body;
body:
  cvt.u64.u32 %off, %i;
  shl.u64 %off, %off, 2;
  ld.param.u64 %p, [in];
  add.u64 %p, %p, %off;
  ld.param.u64 %q, [out];
  add.u64 %q, %q, %off;
  ld.param.u32 %k, [k];
  ld.global.u32 %v, [%p];
  mad.u32 %v, %v, %k, 1;
  st.global.u32 [%q], %v;
  bra done;
done:
  ret;
}
)";

constexpr uint32_t SmallElems = 1024;       // 4 KiB
constexpr uint32_t BulkElems = 256 * 1024;  // 1 MiB
constexpr uint32_t BulkTouched = 256;       // the bulk request's trivial launch
constexpr uint32_t Block = 64;

Dim3 gridFor(uint32_t N) { return {(N + Block - 1) / Block, 1, 1}; }

std::vector<uint32_t> randomWords(Rng &R, size_t N) {
  std::vector<uint32_t> V(N);
  for (uint32_t &X : V)
    X = static_cast<uint32_t>(R.next());
  return V;
}

/// The serving kernel as a registry-style workload, so the cold and layer
/// probes treat it like any other kernel.
const Workload &madOutWorkload() {
  static const Workload W = {
      "mad_out", "mad_out", WorkloadClass::MemoryBound, MadOutSrc,
      [](uint32_t Scale) {
        const uint32_t N = SmallElems * Scale;
        auto I = std::make_unique<WorkloadInstance>();
        I->Dev = std::make_unique<Device>(static_cast<size_t>(N) * 8 + 4096);
        Rng R(N);
        std::vector<uint32_t> In = randomWords(R, N);
        uint64_t A = I->Dev->allocArray<uint32_t>(N);
        uint64_t B = I->Dev->allocArray<uint32_t>(N);
        I->Dev->upload(A, In);
        I->Grid = gridFor(N);
        I->Block = {Block, 1, 1};
        I->Params.u64(A).u64(B).u32(N).u32(3);
        I->Check = [In, B, N](Device &D, std::string &Err) {
          std::vector<uint32_t> Out = D.download<uint32_t>(B, N);
          for (uint32_t J = 0; J < N; ++J)
            if (Out[J] != In[J] * 3 + 1) {
              Err = formatString("element %u: got %u", J, Out[J]);
              return false;
            }
          return true;
        };
        return I;
      }};
  return W;
}

enum class ReqType : uint8_t { Small, LaunchOnly, Bulk };
constexpr std::array<uint32_t, 3> TypeThreads = {SmallElems, SmallElems,
                                                 BulkTouched};

/// Request mix: 70% small, 22% launch-only, 8% bulk.
ReqType pickType(Rng &R) {
  uint32_t X = R.below(100);
  return X < 70 ? ReqType::Small : X < 92 ? ReqType::LaunchOnly : ReqType::Bulk;
}

/// Per-verb client call durations.
struct VerbTimes {
  std::vector<double> CopyIn, Launch, CopyOut, Sync;
  void merge(const VerbTimes &O) {
    CopyIn.insert(CopyIn.end(), O.CopyIn.begin(), O.CopyIn.end());
    Launch.insert(Launch.end(), O.Launch.begin(), O.Launch.end());
    CopyOut.insert(CopyOut.end(), O.CopyOut.begin(), O.CopyOut.end());
    Sync.insert(Sync.end(), O.Sync.begin(), O.Sync.end());
  }
};

/// One tenant session and its buffers.
struct Tenant {
  ServeClient Cl;
  uint64_t Prog = 0, In = 0, Out = 0, LoIn = 0, LoOut = 0, Bulk = 0;
  std::vector<std::vector<uint32_t>> SmallIn, BulkIn;
  std::vector<uint32_t> OutHost, BulkOut;
  VerbTimes Verbs;
  std::string Error;

  bool connect(const std::string &Sock, Rng &R) {
    if (Status E = Cl.connect(Sock, "perfbench"); E.isError())
      return fail(E.message());
    auto P = Cl.loadProgram(MadOutSrc);
    if (!P)
      return fail(P.status().message());
    Prog = *P;
    for (uint64_t *Addr : {&In, &Out, &LoIn, &LoOut}) {
      auto A = Cl.alloc(SmallElems * 4);
      if (!A)
        return fail(A.status().message());
      *Addr = *A;
    }
    auto B = Cl.alloc(BulkElems * 4);
    if (!B)
      return fail(B.status().message());
    Bulk = *B;
    for (int V = 0; V < 4; ++V)
      SmallIn.push_back(randomWords(R, SmallElems));
    for (int V = 0; V < 2; ++V)
      BulkIn.push_back(randomWords(R, BulkElems));
    OutHost.resize(SmallElems);
    BulkOut.resize(BulkElems);
    std::vector<uint32_t> Lo = randomWords(R, SmallElems);
    if (Status E = Cl.copyIn(LoIn, Lo.data(), Lo.size() * 4); E.isError())
      return fail(E.message());
    return true;
  }

  bool fail(const std::string &M) {
    if (Error.empty())
      Error = M;
    return false;
  }

  template <typename Fn>
  auto verb(std::vector<double> &Times, const char *Name, Fn &&F) {
    Scope S(Name, "serve");
    double T0 = now();
    auto R = F();
    Times.push_back(now() - T0);
    return R;
  }

  /// Runs one request; \p Variant picks the input buffer, \p K the
  /// multiplier. \p DueAt (open loop) is when the request was due: the wait
  /// from then until it is sent is recorded as its queue wait. Sets
  /// ResultAt when the reply is back in host memory, then checks it.
  /// Returns false (with Error set) on any failure or mismatch.
  bool request(ReqType T, uint32_t Variant, uint32_t K, double DueAt = 0) {
    bool OK = false;
    {
      Request Root("serve.request", static_cast<uint32_t>(T));
      if (DueAt > 0)
        Root.queueWait(now() - DueAt);
      OK = T == ReqType::Small        ? small(Variant, K)
           : T == ReqType::LaunchOnly ? launchOnly(K)
                                      : bulk(Variant, K);
      ResultAt = now();
    }
    if (!OK)
      return false;
    if (T == ReqType::Small) {
      const std::vector<uint32_t> &Src = SmallIn[Variant % SmallIn.size()];
      for (uint32_t I = 0; I < SmallElems; ++I)
        if (OutHost[I] != Src[I] * K + 1)
          return fail(formatString("small: element %u wrong", I));
    } else if (T == ReqType::Bulk) {
      const std::vector<uint32_t> &Src = BulkIn[Variant % BulkIn.size()];
      for (uint32_t I = 0; I < BulkElems; ++I)
        if (BulkOut[I] != (I < BulkTouched ? Src[I] * K + 1 : Src[I]))
          return fail(formatString("bulk: element %u wrong", I));
    }
    return true;
  }
  double ResultAt = 0;

private:
  bool launchMadOut(uint64_t Src, uint64_t Dst, uint32_t N, uint32_t K) {
    Params P;
    P.u64(Src).u64(Dst).u32(N).u32(K);
    return static_cast<bool>(verb(Verbs.Launch, "ServeClient::launch", [&] {
      return Cl.launch(Prog, "mad_out", gridFor(N), {Block, 1, 1}, P);
    }));
  }

  bool small(uint32_t Variant, uint32_t K) {
    const std::vector<uint32_t> &Src = SmallIn[Variant % SmallIn.size()];
    if (verb(Verbs.CopyIn, "ServeClient::copyIn", [&] {
          return Cl.copyIn(In, Src.data(), SmallElems * 4);
        }).isError())
      return fail("small copyIn failed");
    if (!launchMadOut(In, Out, SmallElems, K))
      return fail("small launch refused");
    if (verb(Verbs.CopyOut, "ServeClient::copyOut", [&] {
          return Cl.copyOut(OutHost.data(), Out, SmallElems * 4);
        }).isError())
      return fail("small copyOut failed");
    return true;
  }

  bool launchOnly(uint32_t K) {
    if (!launchMadOut(LoIn, LoOut, SmallElems, K))
      return fail("launch refused");
    if (Status E = verb(Verbs.Sync, "ServeClient::synchronize",
                        [&] { return Cl.synchronize(); });
        E.isError())
      return fail("synchronize: " + E.message());
    return true;
  }

  bool bulk(uint32_t Variant, uint32_t K) {
    const std::vector<uint32_t> &Src = BulkIn[Variant % BulkIn.size()];
    if (verb(Verbs.CopyIn, "ServeClient::copyIn", [&] {
          return Cl.copyIn(Bulk, Src.data(), BulkElems * 4);
        }).isError())
      return fail("bulk copyIn failed");
    if (!launchMadOut(Bulk, Bulk, BulkTouched, K))
      return fail("bulk launch refused");
    if (verb(Verbs.CopyOut, "ServeClient::copyOut", [&] {
          return Cl.copyOut(BulkOut.data(), Bulk, BulkElems * 4);
        }).isError())
      return fail("bulk copyOut failed");
    return true;
  }
};

/// Outcome of one tenant's share of one ladder rate.
struct TenantRun {
  std::vector<std::tuple<double, size_t, double>> Done; ///< (due, type, s)
  std::vector<BacklogSample> Backlog;
  LagAccount Lag;
  uint64_t Attempted = 0, Failed = 0;
  double LastDone = 0;
};

constexpr double SpinWindow = 150e-6;

/// Open-loop generator for one tenant over [Start, Start + Dur).
TenantRun generate(Tenant &T, uint64_t Seed, double Rate, double Start,
                   double Dur) {
  Rng R(Seed);
  std::vector<double> Due;
  std::vector<ReqType> Types;
  std::vector<uint32_t> Variant, Mult;
  for (double At = R.expGap(Rate); At < Dur; At += R.expGap(Rate)) {
    Due.push_back(At);
    Types.push_back(pickType(R));
    Variant.push_back(R.below(4));
    Mult.push_back(2 + R.below(1000));
  }
  TenantRun Out;
  size_t Arrived = 0; // requests due so far
  for (size_t I = 0; I < Due.size(); ++I) {
    const double DueAt = Start + Due[I];
    // Sleep to just short of the due time, then yield-spin: a timer
    // wake-up can land a tenth of a millisecond late, which would read as
    // latency; yielding leaves the cores to the daemon's threads.
    double Now = now();
    if (Now < DueAt - SpinWindow)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(DueAt - SpinWindow - Now));
    while ((Now = now()) < DueAt)
      std::this_thread::yield();
    while (Arrived < Due.size() && Start + Due[Arrived] <= Now)
      ++Arrived;
    Out.Backlog.push_back({Now - Start, static_cast<double>(Arrived - I - 1)});
    Out.Lag.note(DueAt, Now);
    ++Out.Attempted;
    if (!T.request(Types[I], Variant[I], Mult[I], DueAt)) {
      ++Out.Failed;
      continue;
    }
    const double Done = T.ResultAt;
    Out.Done.push_back({DueAt, static_cast<size_t>(Types[I]), Done - DueAt});
    Out.LastDone = Done;
  }
  return Out;
}

struct RateResult {
  double Rate = 0;
  std::vector<double> Lat; ///< in due-time order
  std::vector<std::pair<size_t, double>> Ops; ///< (type, seconds), same order
  LagAccount Lag;
  bool Growing = false;
  double BacklogMax = 0;
  uint64_t Attempted = 0, Failed = 0, Completed = 0;
  double Achieved = 0; ///< completed requests per second
};

/// Runs every tenant's generator at total rate \p Rate for \p Dur seconds.
RateResult runRate(Ctx &C, std::vector<std::unique_ptr<Tenant>> &Ts,
                   double Rate, double Dur, uint64_t SeedBase) {
  const double Start = now() + 0.02;
  std::vector<TenantRun> Runs(Ts.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Ts.size(); ++I)
    Threads.emplace_back([&, I] {
      Runs[I] = generate(*Ts[I], SeedBase * 131 + I, Rate / Ts.size(), Start,
                         Dur);
    });
  for (std::thread &T : Threads)
    T.join();
  RateResult R;
  R.Rate = Rate;
  double End = Start + Dur;
  std::vector<std::tuple<double, size_t, double>> Done;
  for (size_t I = 0; I < Runs.size(); ++I) {
    TenantRun &T = Runs[I];
    Done.insert(Done.end(), T.Done.begin(), T.Done.end());
    R.Lag.merge(T.Lag);
    R.Growing |= backlogGrowing(T.Backlog);
    for (const BacklogSample &B : T.Backlog)
      R.BacklogMax = std::max(R.BacklogMax, B.Depth);
    R.Attempted += T.Attempted;
    R.Failed += T.Failed;
    End = std::max(End, T.LastDone);
    if (T.Failed && C.Errors.size() < 8)
      C.Errors.push_back("serve: " + Ts[I]->Error);
  }
  std::sort(Done.begin(), Done.end());
  for (auto &[Due, Type, Lat] : Done) {
    R.Lat.push_back(Lat);
    R.Ops.push_back({Type, Lat});
  }
  R.Completed = R.Lat.size();
  R.Achieved = static_cast<double>(R.Completed) / (End - Start);
  C.Attempted += R.Attempted;
  C.Failed += R.Failed;
  return R;
}

/// The rate ladder (total requests/s over all tenants), the reference rate
/// latency is reported at, and the p99 limit a rate must meet. The
/// reference is the lowest rate: at higher rates a briefly slowed host
/// (CPU steal) turns into queueing that multiplies the median.
constexpr std::array<double, 3> Ladder = {600, 1200, 2400};
constexpr double ReferenceRate = 600;
constexpr double P99Limit = 0.020;

bool meets(const RateResult &R) {
  auto P99 = windowedTail(R.Lat, 0.99, TailWindow);
  return !R.Failed && P99 && *P99 <= P99Limit && !R.Growing;
}

/// Starts a daemon and connects \p N tenants.
bool startServing(Ctx &C, ServeDaemon &D, const std::string &Sock,
                  std::vector<std::unique_ptr<Tenant>> &Ts, unsigned N,
                  Rng &R) {
  if (Status E = D.start(); E.isError()) {
    C.fail("serve: " + E.message());
    return false;
  }
  for (unsigned I = 0; I < N; ++I) {
    Ts.push_back(std::make_unique<Tenant>());
    if (!Ts.back()->connect(Sock, R)) {
      C.fail("serve: " + Ts.back()->Error);
      return false;
    }
  }
  return true;
}

ServeOptions daemonOptions(const std::string &Sock) {
  ServeOptions O;
  O.SocketPath = Sock;
  O.DeviceBytes = 8ull << 20;
  O.Spec = SpecializationOptions::fromEnv();
  return O;
}

/// The serve probe's open-loop burst: one tenant at ProbeRate requests/s.
constexpr double ProbeRate = 300;
constexpr double ProbeSeconds = 1.5;

/// The serve-layer rows: per-verb client-call medians over the verbs \p Ts
/// recorded, frames per completed request of \p Runs, their largest
/// backlog, and the generator-lag p99 of \p LagOf.
void serveLayers(Ctx &C, std::vector<std::unique_ptr<Tenant>> &Ts,
                 uint64_t Frames, const std::vector<RateResult> &Runs,
                 const RateResult &LagOf) {
  VerbTimes All;
  for (auto &T : Ts)
    All.merge(T->Verbs);
  C.layer("serve.copy_in_s", median(All.CopyIn), "s", All.CopyIn.size());
  C.layer("serve.launch_s", median(All.Launch), "s", All.Launch.size());
  C.layer("serve.copy_out_s", median(All.CopyOut), "s", All.CopyOut.size());
  C.layer("serve.synchronize_s", median(All.Sync), "s", All.Sync.size());
  uint64_t Requests = 0;
  double BacklogMax = 0;
  for (const RateResult &RR : Runs) {
    Requests += RR.Completed;
    BacklogMax = std::max(BacklogMax, RR.BacklogMax);
  }
  C.layer("serve.frames_per_request",
          Requests ? static_cast<double>(Frames) / Requests : 0,
          "frames/request", Requests);
  C.layer("serve.backlog_max", BacklogMax, "requests", Requests);
  double Used = 0;
  C.layer("serve.generator_lag_p99_s",
          highestTail(LagOf.Lag.lags(), 0.99, Used).value_or(0), "s",
          LagOf.Lag.count());
}

} // namespace

void serveProbe(Ctx &C) {
  ServeDaemon D(daemonOptions("probe.sock"));
  std::vector<std::unique_ptr<Tenant>> Ts;
  Rng R(C.Seed ^ 0x5e7eull);
  if (!startServing(C, D, "probe.sock", Ts, 1, R))
    return;
  // One request of each type first: the daemon's first launch compiles.
  for (ReqType Ty : {ReqType::Small, ReqType::LaunchOnly, ReqType::Bulk}) {
    ++C.Attempted;
    if (!Ts.front()->request(Ty, 0, 3)) {
      C.fail("serve probe: " + Ts.front()->Error);
      return;
    }
  }
  Ts.front()->Verbs = VerbTimes();
  const uint64_t Frames0 = D.counters().FramesServed;
  std::vector<RateResult> Runs;
  {
    TraceSlice Slice(C, "serve", /*Measured=*/false);
    Runs.push_back(
        runRate(C, Ts, ProbeRate, ProbeSeconds, C.Seed ^ 0x5e7eull));
  }
  serveLayers(C, Ts, D.counters().FramesServed - Frames0, Runs, Runs.front());
  Ts.clear();
  D.requestStop();
}

int runServe(Ctx &C) {
  const std::string Sock = "serve.sock";
  ServeDaemon D(daemonOptions(Sock));
  std::vector<std::unique_ptr<Tenant>> Ts;
  Rng R(C.Seed);
  const unsigned N =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  const auto Setup0 = counterSnapshot();
  if (!startServing(C, D, Sock, Ts, N, R))
    return 1;

  // Warm: every request type on every tenant until a round plus a pool
  // drain (background JIT compiles) moves none of the gate counters.
  bool Warm = false;
  for (int Round = 0; Round < 50 && !Warm; ++Round) {
    auto Before = counterSnapshot();
    for (auto &T : Ts)
      for (int Rep = 0; Rep < 3; ++Rep)
        for (ReqType Ty :
             {ReqType::Small, ReqType::LaunchOnly, ReqType::Bulk}) {
          ++C.Attempted;
          if (!T->request(Ty, Rep, 3)) {
            C.fail("serve setup: " + T->Error);
            return 1;
          }
        }
    WorkerPool::global().drain();
    auto After = counterSnapshot();
    Warm = Round > 0;
    for (const char *Name : GateCounters)
      Warm &= delta(Before, After, Name) == 0;
  }
  if (!Warm) {
    C.fail("serve setup: the daemon never reached a warm state");
    return 1;
  }
  const auto Setup1 = counterSnapshot();
  for (auto &T : Ts)
    T->Verbs = VerbTimes();
  C.Resolved.push_back(formatString(
      "mad_out (daemon): compiled=%llu native_published=%llu width=4 "
      "plan=\"\"",
      static_cast<unsigned long long>(delta(Setup0, Setup1, "tc.compile")),
      static_cast<unsigned long long>(delta(Setup0, Setup1, "tc.jit_swap"))));
  C.setupDone();

  const auto Before = counterSnapshot();
  uint64_t Frames = 0;
  // The reference rate gets half the run (its p99 needs the samples); the
  // other rates share the rest. The warm-state gate covers each rate.
  std::vector<RateResult> Results;
  uint64_t Step = 0;
  for (double Rate : Ladder) {
    double Dur = Rate == ReferenceRate ? C.Seconds / 2 : C.Seconds / 4;
    const auto RateBefore = counterSnapshot();
    const uint64_t Frames0 = D.counters().FramesServed;
    Results.push_back(runRate(C, Ts, Rate, Dur, C.Seed * 7 + ++Step));
    Frames += D.counters().FramesServed - Frames0;
    warmGate(C, RateBefore, counterSnapshot());
  }
  uint64_t Requests = 0;
  for (const RateResult &RR : Results)
    Requests += RR.Completed;

  const RateResult *Ref = nullptr;
  double MaxRps = 0;
  for (const RateResult &RR : Results) {
    if (RR.Rate == ReferenceRate)
      Ref = &RR;
    if (meets(RR))
      MaxRps = RR.Achieved;
  }
  std::array<std::vector<double>, 3> ByType;
  for (auto &[Ty, L] : Ref->Ops)
    ByType[Ty].push_back(L);
  std::vector<double> TypeRates;
  for (size_t Ty = 0; Ty < 3; ++Ty)
    TypeRates.push_back(TypeThreads[Ty] / median(ByType[Ty]));
  C.e2e("threads_per_s", geomean(TypeRates), "threads/s", Ref->Lat.size());
  C.e2e("rtt_p50_s", median(Ref->Lat), "s", Ref->Lat.size());
  C.layer("rtt_p99_s", windowedTail(Ref->Lat, 0.99, TailWindow).value_or(0),
          "s", Ref->Lat.size());
  C.layer("max_rps", MaxRps, "req/s", Requests);
  for (const RateResult &RR : Results)
    C.Resolved.push_back(formatString(
        "rate %.0f/s: achieved %.1f/s p50 %.6f s p99 %.6f s backlog_max %.0f "
        "%s",
        RR.Rate, RR.Achieved, median(RR.Lat),
        windowedTail(RR.Lat, 0.99, TailWindow).value_or(0), RR.BacklogMax,
        meets(RR) ? "meets limit" : "misses limit"));

  if (C.Trace) {
    // Traced repeat of the reference rate, in one-second trace slices.
    for (auto &T : Ts)
      T->Verbs = VerbTimes();
    const auto TracedBefore = counterSnapshot();
    std::vector<std::pair<size_t, double>> TracedOps;
    uint64_t Slice = 0;
    for (double Left = C.Seconds / 2; Left > 0; Left -= 1.0) {
      TraceSlice T(C, "measured", /*Measured=*/true);
      RateResult RR = runRate(C, Ts, ReferenceRate, std::min(Left, 1.0),
                              C.Seed * 7 + 99 + ++Slice);
      TracedOps.insert(TracedOps.end(), RR.Ops.begin(), RR.Ops.end());
    }
    warmGate(C, TracedBefore, counterSnapshot());
    traceSummary(C, Ref->Ops, TracedOps);
    const auto After = counterSnapshot();
    registryLayers(C, Before, After);
    serveLayers(C, Ts, Frames, Results, *Ref);
    double Compiled =
        static_cast<double>(delta(Setup0, Setup1, "tc.compile"));
    C.layer("core.native_ratio",
            Compiled > 0 ? static_cast<double>(
                               delta(Setup0, Setup1, "tc.jit_swap")) /
                               Compiled
                         : 0,
            "ratio", static_cast<size_t>(Compiled));
    C.layer("core.tune_launches", 0, "launches", 0);
    C.layer("core.em_warp_fill",
            static_cast<double>(delta(Before, After, "em.thread_entries")) /
                std::max<double>(
                    1, 4.0 * delta(Before, After, "em.warp_entries")),
            "ratio", static_cast<size_t>(delta(Before, After, "launch.count")));
  }
  Ts.clear();
  D.requestStop();

  if (C.Trace) {
    std::vector<KernelCase> Cases;
    Cases.push_back(makeCase(madOutWorkload(), 1));
    layerProbes(C, Cases, {""}, /*NeedRuntime=*/true, /*NeedServe=*/false,
                /*NeedJit=*/true);
    interpLaunchProbe(C, {});
    coldProbe(C, Cases, 3);
  }
  return 0;
}

} // namespace perfbench
