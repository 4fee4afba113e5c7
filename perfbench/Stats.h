//===- perfbench/Stats.h - Sample statistics for the benchmark --*- C++ -*-===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own statistics, header-only so stats_test.cpp can check
/// them without the SIMTVec libraries:
///
///  - `median`, `geomean`;
///  - `tailPercentile`: a nearest-rank percentile that refuses to answer
///    unless at least `MinBeyond` samples lie strictly above the selected
///    rank, so a "p99" is never read off the last one or two samples;
///  - `highestTail`: the highest percentile (capped at \p P) that still has
///    `MinBeyond` samples beyond it, for samples too small for p99;
///  - `windowedTail`: the median of per-window tail percentiles over
///    consecutive windows, so one stall cannot move a whole run's p99;
///  - `quietScale`: how much faster the least-disturbed stretch of a run
///    was than the run as a whole, so a run's medians can be read off that
///    stretch;
///  - `backlogGrowing`: whether an open-loop generator's backlog trended
///    upward over a rate step (the system did not keep up);
///  - `LagAccount`: generator-lag bookkeeping for an open-loop schedule
///    (how late each request was sent relative to when it was due).
///
//===----------------------------------------------------------------------===//

#ifndef SIMTVEC_PERFBENCH_STATS_H
#define SIMTVEC_PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Geometric mean of strictly positive values; 0 when empty or when any
/// value is not positive (a geomean over a zero is meaningless).
inline double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V) {
    if (!(X > 0))
      return 0;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(V.size()));
}

/// Nearest-rank percentile \p P (0 < P < 1) of \p V: the sample at sorted
/// index ceil(P * N) - 1. Empty unless at least \p MinBeyond samples sit
/// strictly after that index — the tail a percentile claims to describe
/// must itself have been observed.
inline std::optional<double> tailPercentile(std::vector<double> V, double P,
                                            size_t MinBeyond = 10) {
  if (V.empty() || !(P > 0) || !(P < 1))
    return std::nullopt;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(N)));
  if (Rank == 0)
    Rank = 1;
  size_t Idx = Rank - 1;
  if (N - 1 - Idx < MinBeyond)
    return std::nullopt;
  return V[Idx];
}

/// The highest percentile, at most \p P, that has \p MinBeyond samples
/// beyond it: p = (N - MinBeyond) / N, capped at \p P. Returns the value and
/// writes the percentile used to \p Used. Empty when N <= MinBeyond.
inline std::optional<double> highestTail(const std::vector<double> &V,
                                         double P, double &Used,
                                         size_t MinBeyond = 10) {
  size_t N = V.size();
  if (N <= MinBeyond)
    return std::nullopt;
  double Q = std::min(P, static_cast<double>(N - MinBeyond) /
                             static_cast<double>(N));
  // Step down past any rounding that would leave fewer than MinBeyond
  // samples beyond the rank.
  for (; Q > 0; Q -= 1.0 / static_cast<double>(N))
    if (auto R = tailPercentile(V, Q, MinBeyond)) {
      Used = Q;
      return R;
    }
  return std::nullopt;
}

/// Tail percentile \p P robust to one-off stalls: \p V (in time order) is
/// cut into consecutive windows of at least \p Window samples, each window's
/// percentile is taken with tailPercentile, and the median of those is
/// returned. A sample too small for one window falls back to highestTail.
/// \p Window must be large enough for tailPercentile(P, MinBeyond).
inline std::optional<double> windowedTail(const std::vector<double> &V,
                                          double P, size_t Window,
                                          size_t MinBeyond = 10) {
  size_t Windows = V.size() / Window;
  if (Windows == 0) {
    double Used = 0;
    return highestTail(V, P, Used, MinBeyond);
  }
  std::vector<double> Per;
  for (size_t W = 0; W < Windows; ++W) {
    auto Begin = V.begin() + static_cast<std::ptrdiff_t>(W * Window);
    auto End = W + 1 == Windows
                   ? V.end()
                   : Begin + static_cast<std::ptrdiff_t>(Window);
    auto T = tailPercentile(std::vector<double>(Begin, End), P, MinBeyond);
    if (!T)
      return std::nullopt;
    Per.push_back(*T);
  }
  return median(Per);
}

/// Latency of a mix of op kinds with different typical latencies (kernels
/// in a round-robin, say), as one "typical op": \p Ops holds (kind, seconds)
/// in time order. The median is the geomean of the per-kind medians; the
/// tail is the windowedTail of each op's latency divided by its kind's
/// median, scaled by that geomean. Unlike a percentile of the raw mixture,
/// neither jumps between kinds when one kind's time shifts slightly.
struct MixLatency {
  double Median = 0;
  double Tail = 0;
};
inline MixLatency mixLatency(const std::vector<std::pair<size_t, double>> &Ops,
                             double P, size_t Window) {
  std::vector<std::vector<double>> ByKind;
  for (auto &[K, L] : Ops) {
    if (K >= ByKind.size())
      ByKind.resize(K + 1);
    ByKind[K].push_back(L);
  }
  std::vector<double> Medians(ByKind.size()), Present;
  for (size_t K = 0; K < ByKind.size(); ++K)
    if (!ByKind[K].empty())
      Present.push_back(Medians[K] = median(ByKind[K]));
  MixLatency Out;
  Out.Median = geomean(Present);
  std::vector<double> Ratios;
  for (auto &[K, L] : Ops)
    if (Medians[K] > 0)
      Ratios.push_back(L / Medians[K]);
  Out.Tail = windowedTail(Ratios, P, Window).value_or(0) * Out.Median;
  return Out;
}

/// Speed of the least-disturbed stretch of a run, relative to the whole
/// run. \p Ops holds (kind, seconds) in time order. Each op's time is
/// divided by the median of its kind, the ratios are cut into \p Windows
/// consecutive windows of equal count, and the smallest window median is
/// returned. Multiplying a run-wide median by it gives the median of that
/// stretch. Returns 1 when there are fewer ops than windows.
inline double quietScale(const std::vector<std::pair<size_t, double>> &Ops,
                         size_t Windows) {
  if (Windows == 0 || Ops.size() < Windows)
    return 1;
  std::vector<std::vector<double>> ByKind;
  for (auto &[K, L] : Ops) {
    if (K >= ByKind.size())
      ByKind.resize(K + 1);
    ByKind[K].push_back(L);
  }
  std::vector<double> Medians(ByKind.size());
  for (size_t K = 0; K < ByKind.size(); ++K)
    if (!ByKind[K].empty())
      Medians[K] = median(ByKind[K]);
  double Best = 0;
  for (size_t W = 0; W < Windows; ++W) {
    std::vector<double> Ratios;
    for (size_t I = W * Ops.size() / Windows;
         I < (W + 1) * Ops.size() / Windows; ++I)
      if (double M = Medians[Ops[I].first]; M > 0)
        Ratios.push_back(Ops[I].second / M);
    if (!Ratios.empty() && (Best == 0 || median(Ratios) < Best))
      Best = median(Ratios);
  }
  return Best > 0 ? Best : 1;
}

/// One backlog observation of an open-loop generator: at time \p T
/// (seconds into the step) \p Depth requests were due but not yet sent.
struct BacklogSample {
  double T = 0;
  double Depth = 0;
};

/// True when the backlog grew over the step: the mean depth over the last
/// third of the step exceeds the first third's by more than \p Slack
/// requests plus half the first third's mean. A system keeping up shows
/// bounded, trendless backlog (bursts drain); one past capacity shows a
/// queue that only lengthens.
inline bool backlogGrowing(const std::vector<BacklogSample> &S,
                           double Slack = 2.0) {
  if (S.size() < 6)
    return false;
  double TEnd = 0;
  for (const BacklogSample &B : S)
    TEnd = std::max(TEnd, B.T);
  if (!(TEnd > 0))
    return false;
  double First = 0, Last = 0;
  size_t NF = 0, NL = 0;
  for (const BacklogSample &B : S) {
    if (B.T <= TEnd / 3) {
      First += B.Depth;
      ++NF;
    } else if (B.T >= 2 * TEnd / 3) {
      Last += B.Depth;
      ++NL;
    }
  }
  if (!NF || !NL)
    return false;
  First /= static_cast<double>(NF);
  Last /= static_cast<double>(NL);
  return Last > First * 1.5 + Slack;
}

/// Lag bookkeeping for one open-loop generator: every request has a due
/// time from the seeded arrival schedule and an actual send time. Lag is
/// max(0, sent - due); latency is measured from `due`, so a stalled
/// generator cannot hide the wait it imposed on later requests.
class LagAccount {
public:
  /// Records one request sent at \p Sent that was due at \p Due.
  void note(double Due, double Sent) {
    Lags.push_back(Sent > Due ? Sent - Due : 0.0);
  }
  size_t count() const { return Lags.size(); }
  const std::vector<double> &lags() const { return Lags; }
  void merge(const LagAccount &O) {
    Lags.insert(Lags.end(), O.Lags.begin(), O.Lags.end());
  }

private:
  std::vector<double> Lags;
};

} // namespace perfbench

#endif // SIMTVEC_PERFBENCH_STATS_H
