//===- perfbench/stats_test.cpp - Tests of the benchmark's statistics -----===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Checks of Stats.h and of the trace folding in Tracing.h (parents from
/// nesting, self time, blocking paths). Exit code 0 when every check
/// passes.
///
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Tracing.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::printf("FAIL: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  for (size_t I = 0; I < N; ++I)
    V[I] = static_cast<double>(I + 1); // 1..N
  return V;
}

void testMedianGeomean() {
  check(near(median({3, 1, 2}), 2), "median of odd count");
  check(near(median({4, 1, 3, 2}), 2.5), "median of even count");
  check(median({}) == 0, "median of nothing is 0");
  check(near(geomean({1, 100}), 10), "geomean of 1 and 100");
  check(near(geomean({2, 8, 4}), 4), "geomean of 2, 8, 4");
  check(geomean({}) == 0, "geomean of nothing is 0");
  check(geomean({1, 0, 3}) == 0, "geomean over a zero is refused");
}

void testTailPercentile() {
  // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
  auto P = tailPercentile(iota(1000), 0.99, 10);
  check(P && near(*P, 990), "p99 of 1..1000 is 990");
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  check(!tailPercentile(iota(999), 0.99, 10), "p99 refused with 9 beyond");
  check(static_cast<bool>(tailPercentile(iota(20), 0.5, 10)) &&
            !tailPercentile(iota(19), 0.5, 10),
        "p50 needs 20 samples");
  // Order of input does not matter.
  std::vector<double> Rev = iota(1000);
  std::reverse(Rev.begin(), Rev.end());
  auto Q = tailPercentile(Rev, 0.99, 10);
  check(Q && near(*Q, 990), "p99 independent of sample order");
  // p50 of 1..100 is rank 50.
  auto M = tailPercentile(iota(100), 0.5, 10);
  check(M && near(*M, 50), "p50 of 1..100 is 50");
  check(!tailPercentile({}, 0.5, 0), "empty sample refused");
}

void testHighestTail() {
  double Used = 0;
  auto Full = highestTail(iota(2000), 0.99, Used);
  check(Full && near(Used, 0.99) && near(*Full, 1980),
        "enough samples: p99 itself");
  auto Small = highestTail(iota(200), 0.99, Used);
  // 200 samples: highest percentile with 10 beyond is p95 (rank 190).
  check(Small && near(*Small, 190) && Used <= 0.95 + 1e-12,
        "small sample falls back to p95");
  check(!highestTail(iota(10), 0.99, Used), "10 samples: no tail at all");
}

void testWindowedTail() {
  // Three windows of 1000; a stall inflates the middle window's tail only.
  std::vector<double> V;
  for (int W = 0; W < 3; ++W)
    for (int I = 1; I <= 1000; ++I)
      V.push_back(W == 1 && I > 950 ? 1000.0 + I : static_cast<double>(I));
  auto T = windowedTail(V, 0.99, 1000);
  check(T && near(*T, 990), "windowed p99 ignores one stalled window");
  double Used = 0;
  check(*highestTail(V, 0.99, Used) > 1000, "plain p99 follows the stall");
  auto Short = windowedTail(iota(500), 0.99, 1000);
  check(Short && near(*Short, 490), "short sample falls back to highestTail");
  auto Rem = windowedTail(iota(2500), 0.99, 1000);
  // Windows 1..1000 (p99 990) and 1001..2500 (1500 samples, p99 2485).
  check(Rem && near(*Rem, (990 + 2485) / 2.0),
        "last window absorbs the remainder");
}

void testMixLatency() {
  // Two kinds, 1 ms and 4 ms, each with a 2x tail on 1% of its ops.
  std::vector<std::pair<size_t, double>> Ops;
  for (int I = 0; I < 2000; ++I)
    for (size_t K = 0; K < 2; ++K) {
      double Base = K ? 4e-3 : 1e-3;
      Ops.push_back({K, I % 100 == 99 ? 2 * Base : Base});
    }
  MixLatency M = mixLatency(Ops, 0.99, 1000);
  check(near(M.Median, 2e-3), "mix median is the geomean of kind medians");
  check(near(M.Tail, 2e-3), "mix tail: p99 of ratios (1.0) times 2 ms");
  // Shift one kind slightly: the raw mixture median would jump between
  // kinds, the mix median moves smoothly.
  for (auto &[K, L] : Ops)
    if (K == 1)
      L *= 1.1;
  check(near(mixLatency(Ops, 0.99, 1000).Median, 2e-3 * std::sqrt(1.1)),
        "mix median follows a kind's shift smoothly");
}

void testQuietScale() {
  // Two kinds at 1 s and 10 s; the third quarter of the run is twice as
  // slow, the last quarter 20% faster.
  std::vector<std::pair<size_t, double>> Ops;
  for (size_t I = 0; I < 80; ++I) {
    double F = I >= 40 && I < 60 ? 2.0 : I >= 60 ? 0.8 : 1.0;
    Ops.push_back({I % 2, (I % 2 ? 10.0 : 1.0) * F});
  }
  // Each kind's median is its undisturbed time, so the 0.8x stretch reads
  // 0.8 whichever window count cuts it.
  check(near(quietScale(Ops, 4), 0.8), "quiet scale is the fastest window");
  check(near(quietScale(Ops, 8), 0.8), "quiet scale with narrower windows");
  check(near(quietScale(Ops, 1), 1.0), "one window is the whole run");
  check(near(quietScale({{0, 5.0}}, 8), 1.0), "too few ops: no scaling");
}

void testBacklogGrowth() {
  std::vector<BacklogSample> Flat, Growing, Burst;
  for (int I = 0; I < 90; ++I) {
    double T = I * 0.01;
    Flat.push_back({T, static_cast<double>(I % 3)});
    Growing.push_back({T, I * 0.5});
    Burst.push_back({T, I >= 30 && I < 40 ? 20.0 : 0.0});
  }
  check(!backlogGrowing(Flat), "bounded backlog is not growth");
  check(backlogGrowing(Growing), "lengthening backlog is growth");
  check(!backlogGrowing(Burst), "a drained mid-step burst is not growth");
  check(!backlogGrowing({}), "no samples: no growth");
}

void testLagAccount() {
  LagAccount L;
  L.note(1.0, 0.9);   // early: lag 0
  L.note(2.0, 2.5);   // 0.5 late
  L.note(3.0, 3.001); // 1 ms late
  check(L.count() == 3, "lag count");
  check(near(L.lags()[0], 0), "early sends have zero lag");
  check(near(L.lags()[1], 0.5) && near(L.lags()[2], 0.001), "late sends");
  LagAccount M;
  M.note(0, 1);
  L.merge(M);
  check(L.count() == 4 && near(L.lags()[3], 1), "merge");
  // Lag p99 follows the tail-percentile rule: 1000 sends, 10 of them late.
  LagAccount P;
  for (int I = 0; I < 1000; ++I)
    P.note(I, I + (I % 100 == 0 ? 0.2 : 0.0));
  double Used = 0;
  check(near(*highestTail(P.lags(), 0.99, Used), 0),
        "p99 lag of on-time sends");
}

simtvec::trace::Event span(const char *Name, const char *Cat, uint64_t Ts,
                          uint64_t End, const char *K0 = nullptr,
                          uint64_t A0 = 0, const char *K1 = nullptr,
                          uint64_t A1 = 0) {
  simtvec::trace::Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ts = Ts;
  E.Dur = End - Ts;
  E.Ph = simtvec::trace::Kind::Span;
  E.K0 = K0;
  E.A0 = A0;
  E.K1 = K1;
  E.A1 = A1;
  return E;
}

void testTraceFold() {
  // Thread 1, in record order (a span records at its end): request 7 of
  // kind 2 is root [0,100] with children [10,40] and [50,90]; the second
  // child has the program's own span [60,70] (em "cta" counts as vm) inside
  // it. A child that starts with its parent still nests under it.
  simtvec::trace::ThreadEvents T1;
  T1.Events = {
      span("a", "runtime", 10, 40, "req", 7),
      span("cta", "em", 60, 70),
      span("b", "core", 50, 90, "req", 7),
      span("root", "bench", 0, 100, "req", 7, "kind", 2),
      span("c", "runtime", 200, 230, "req", 8),
      span("root", "bench", 200, 250, "req", 8, "kind", 1),
  };
  // Thread 2: a pool task on a worker, concurrent with thread 1, and a
  // queue wait of 5 ns for request 8.
  simtvec::trace::ThreadEvents T2;
  T2.Events = {span("pool.task", "pool", 20, 80)};
  simtvec::trace::Event Wait;
  Wait.Name = QueueWaitEvent;
  Wait.Cat = "bench";
  Wait.Ph = simtvec::trace::Kind::Instant;
  Wait.A0 = 5;
  Wait.K0 = "wait_ns";
  Wait.A1 = 8;
  Wait.K1 = "req";
  T1.Events.push_back(Wait);

  TraceFold F;
  F.add({T1, T2});
  auto Ns = [&](const char *Layer) { return F.SelfSeconds[Layer] * 1e9; };
  check(near(Ns("bench"), 30 + 20), "root self time");
  check(near(Ns("runtime"), 30 + 30 + 60),
        "leaf self time, summed over threads; pool maps to runtime");
  check(near(Ns("core"), 30), "parent minus its child");
  check(near(Ns("vm"), 10), "cta spans count as vm");
  check(F.Paths.size() == 2, "one path per request");
  check(F.Paths[0].first == 2 && near(F.Paths[0].second * 1e9, 70),
        "path = the root's direct children, not the grandchild");
  check(F.Paths[1].first == 1 && near(F.Paths[1].second * 1e9, 35),
        "path includes the queue wait");
}

} // namespace

int main() {
  testMedianGeomean();
  testTailPercentile();
  testHighestTail();
  testWindowedTail();
  testMixLatency();
  testQuietScale();
  testBacklogGrowth();
  testLagAccount();
  testTraceFold();
  if (Failures) {
    std::printf("%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("stats_test: all checks passed\n");
  return 0;
}
