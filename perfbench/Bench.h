//===- perfbench/Bench.h - Shared benchmark harness -------------*- C++ -*-===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the four workloads share: the run context (arguments, seeded
/// generator, collected metrics, failure accounting), the kernel instances
/// the batch and cold-start workloads launch, and the measurements every
/// workload reports (cold first results, the traced layer probes).
///
//===----------------------------------------------------------------------===//

#ifndef SIMTVEC_PERFBENCH_BENCH_H
#define SIMTVEC_PERFBENCH_BENCH_H

#include "Stats.h"
#include "Tracing.h"

#include "simtvec/workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sched.h>
#include <unistd.h>

namespace perfbench {

inline double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: small, fast and identical on every platform, so a seed
/// names the same inputs everywhere (std:: distributions do not).
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform integer in [0, N).
  uint32_t below(uint32_t N) {
    return static_cast<uint32_t>((next() >> 32) * N >> 32);
  }
  /// Exponential inter-arrival gap for a Poisson process of \p Rate / s.
  double expGap(double Rate) { return -std::log(1.0 - uniform()) / Rate; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(static_cast<uint32_t>(I))]);
  }

private:
  uint64_t S;
};

/// Workers of every measured launch (LaunchOptions::Workers). With the
/// default four, a launch's time followed how a shared host scheduled four
/// threads: over five interleaved seeds, batch_uniform's least-disturbed
/// stretches spread 0.23 on four workers and 0.04 on one.
constexpr unsigned LaunchWorkers = 1;

/// For its lifetime, pins every thread of the process to the CPU the
/// constructing thread runs on; the destructor gives each its old mask
/// back. Measured phases run pinned: with one worker per launch, a launch
/// otherwise ran on whichever of the caller and a pool worker claimed it
/// first, on whichever vCPU that thread sat, and the same launches'
/// medians spread 0.15 over five seeds against 0.03 pinned.
class CpuPin {
public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin &) = delete;
  CpuPin &operator=(const CpuPin &) = delete;

private:
  std::vector<std::pair<pid_t, cpu_set_t>> Saved;
};

/// Windows the quietScale of a measured phase cuts its ops into. The
/// bounded time metrics are medians over the least-disturbed window: on a
/// shared host, other tenants slowed the same code by up to 1.9x for
/// seconds at a time, and run-wide medians then spread by 0.3 over ten
/// seeds.
constexpr size_t QuietWindows = 8;

/// Window, in ops, of the p99 every workload reports (windowedTail): large
/// enough that each window's p99 has ten samples beyond it.
constexpr size_t TailWindow = 1000;

struct Metric {
  double Value = 0;
  std::string Unit;
  size_t Samples = 0;
};

/// One benchmark process.
struct Ctx {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 5;
  bool Trace = false;
  std::string TmpDir;   ///< temporary root (cache stores, socket, traces)
  std::string StoreDir; ///< the run's artifact store (SIMTVEC_CACHE_DIR)
  std::string TraceOut; ///< trace file path stem (trace runs)

  double ProcessStart = 0; ///< now() at main entry
  double SetupSeconds = 0; ///< process start -> first measured op

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors; ///< first few failure messages
  bool GateFailed = false;

  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> Layers;
  /// Resolved tier / width / branch plan per kernel, for provenance.
  std::vector<std::string> Resolved;

  /// Traced runs: the measured phase's folded sessions, and the Chrome
  /// JSON of the first session of each TraceSlice label.
  TraceFold Fold;
  std::map<std::string, std::string> TraceJson;
  uint64_t TraceDropped = 0; ///< events dropped on a full trace buffer

  void fail(const std::string &Msg) {
    ++Failed;
    if (Errors.size() < 8)
      Errors.push_back(Msg);
  }
  void e2e(const std::string &Name, double V, const char *Unit, size_t N) {
    EndToEnd[Name] = {V, Unit, N};
  }
  void layer(const std::string &Name, double V, const char *Unit, size_t N) {
    Layers[Name] = {V, Unit, N};
  }
  /// Marks the end of setup (first measured op starts next), then flushes
  /// dirty pages (JIT objects, artifacts) so their writeback does not land
  /// in the measured phase.
  void setupDone() {
    SetupSeconds = now() - ProcessStart;
    ::sync();
  }
};

/// One trace session over a slice of a traced run. A traced phase runs as
/// many short slices (a fraction of a second each), so no thread's trace
/// buffer fills; each session is collected when its slice ends and, when
/// \p Measured, folded into the run's TraceFold. The first session of each
/// \p Label is kept for the trace file `<stem>.<Label>.json`.
class TraceSlice {
public:
  TraceSlice(Ctx &C, const char *Label, bool Measured);
  ~TraceSlice();
  TraceSlice(const TraceSlice &) = delete;
  TraceSlice &operator=(const TraceSlice &) = delete;

private:
  Ctx &C;
  std::string Label;
  bool Measured;
};

/// Length of one measured trace slice, in seconds.
constexpr double TraceSliceSeconds = 0.25;

/// A registry kernel prepared for repeated launches: device buffers
/// uploaded, and the arena's initial bytes kept so every launch can start
/// from the same inputs (several kernels update buffers in place).
struct KernelCase {
  const simtvec::Workload *W = nullptr;
  uint32_t Scale = 1;
  std::unique_ptr<simtvec::WorkloadInstance> Inst;
  std::vector<std::byte> Initial;

  uint64_t threads() const { return Inst->Grid.count() * Inst->Block.count(); }
  void restore() {
    std::copy(Initial.begin(), Initial.end(), Inst->Dev->data());
  }
};

KernelCase makeCase(const simtvec::Workload &W, uint32_t Scale);

/// The translation-cache key a default launch of \p Kernel resolves at
/// \p Width under \p Plan (what the execution manager asks the cache for).
simtvec::TranslationCache::Key defaultKey(const std::string &Kernel,
                                          uint32_t Width,
                                          const std::string &Plan = "");

/// Names of the counters the warm-state gate watches.
extern const char *const GateCounters[4];

/// Snapshot of MetricsRegistry counters by name.
std::map<std::string, uint64_t> counterSnapshot();
uint64_t delta(const std::map<std::string, uint64_t> &A,
               const std::map<std::string, uint64_t> &B,
               const std::string &Name);

/// Fails the run unless the measured phase between \p Before and \p After
/// compiled, JIT-compiled and explored nothing.
void warmGate(Ctx &C, const std::map<std::string, uint64_t> &Before,
              const std::map<std::string, uint64_t> &After);

/// Per-layer counters common to every workload (EM warp fill and yields,
/// pool parks, translation-cache hit ratio) from registry deltas.
void registryLayers(Ctx &C, const std::map<std::string, uint64_t> &Before,
                    const std::map<std::string, uint64_t> &After);

/// One cold first result: Program::compile against \p StoreDir, one launch
/// at default options but LaunchWorkers workers (its translation-cache
/// misses compile, or load from a populated store), and the arena copied
/// back to host memory. Returns seconds, or a negative value on failure
/// (already counted in \p C).
/// Output is checked against the workload's golden Check. \p Kind labels
/// the op's root span; \p NativeOut, when given, receives whether the
/// width-4 specialization ran native.
double coldFirstResult(Ctx &C, KernelCase &K, const std::string &StoreDir,
                       uint32_t Kind, bool *NativeOut = nullptr);

/// Creates an empty directory named after \p Name under the run's temporary
/// root and returns its path.
std::string freshDir(const Ctx &C, const std::string &Name);

/// Traced runs only: first_result_s / first_result_stored_s of \p Cases,
/// for the workloads whose measured op is not a cold start. Populates a
/// private store, then makes \p Reps seeded passes over the cases, one
/// first result against a fresh empty store and one against the populated
/// store per case, and reports the geomean over cases of the medians.
void coldProbe(Ctx &C, std::vector<KernelCase> &Cases, unsigned Reps);

/// Traced runs only: per-layer metrics the workload's own measured phase
/// does not exercise, from direct calls into each layer's public API over
/// \p Cases' sources (parser, transforms, vectorizer, cache, codegen,
/// Program::compile), a runtime submit/sync/copy probe, a serving-daemon
/// probe and a JIT probe. \p Plans gives each case's branch plan.
void layerProbes(Ctx &C, std::vector<KernelCase> &Cases,
                 const std::vector<std::string> &Plans, bool NeedRuntime,
                 bool NeedServe, bool NeedJit);

/// Traced runs only: serve-layer rows from an in-process daemon driven
/// open-loop by one tenant for a short burst (for workloads that do not
/// serve).
void serveProbe(Ctx &C);

/// Traced runs only: `vm.<Kernel>.launch_s` for every batch kernel the
/// workload did not itself measure, from warm interpreter launches.
void interpLaunchProbe(Ctx &C, const std::vector<std::string> &Measured);

/// Reports the self-time, path-coverage and overhead rows of a traced
/// measured phase from the sessions folded into C.Fold. \p Untraced and
/// \p Traced are the (op kind, seconds) samples of the untraced and traced
/// halves; medians are mixLatency medians over kinds.
void traceSummary(Ctx &C,
                  const std::vector<std::pair<size_t, double>> &Untraced,
                  const std::vector<std::pair<size_t, double>> &Traced);

/// The batch kernels of both batch workloads, with their problem scales.
struct BatchSpec {
  const char *Name;
  uint32_t Scale;
};
const std::vector<BatchSpec> &uniformKernels();
const std::vector<BatchSpec> &divergentKernels();

int runBatch(Ctx &C, bool Divergent);
int runServe(Ctx &C);
int runCold(Ctx &C);

} // namespace perfbench

#endif // SIMTVEC_PERFBENCH_BENCH_H
