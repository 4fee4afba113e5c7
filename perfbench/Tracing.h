//===- perfbench/Tracing.h - Benchmark-side tracing ------------*- C++ -*-===//
//
// Part of SIMTVec (CGO 2012 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Traced runs record through SIMTVec's own tracer (`support/Trace.h`). The
/// benchmark opens a `trace::Span` around each public call it makes, in the
/// category of the layer it calls into (parser, transforms, core, vm,
/// runtime, serve); the program's instrumented seams (stream ops, pool
/// tasks, launches, CTAs, cache compiles) record into the same per-thread
/// buffers, so one session holds both. A measured op's root span (category
/// `bench`) carries the arguments `req` (a request id) and `kind` (the op
/// kind); every benchmark span under it carries the same `req`.
///
/// Parents are not recorded: spans nest strictly per thread, so
/// `TraceFold` derives each span's parent from containment on its thread,
/// and from that each span's self time and each request's blocking path.
///
//===----------------------------------------------------------------------===//

#ifndef SIMTVEC_PERFBENCH_TRACING_H
#define SIMTVEC_PERFBENCH_TRACING_H

#include "simtvec/support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

namespace detail {
inline thread_local uint64_t CurrentReq = 0;
inline std::atomic<uint64_t> NextReq{1};
} // namespace detail

/// Name of the instant an open-loop request records for the time it waited
/// between being due and being sent (`wait_ns`, `req`).
constexpr const char *QueueWaitEvent = "serve.queue_wait";

/// A benchmark span around one public call into \p Layer.
class Scope {
public:
  Scope(const char *Name, const char *Layer) : S(Name, Layer) {
    S.arg("req", detail::CurrentReq);
  }

private:
  simtvec::trace::Span S;
};

/// The root span of one measured op. Spans the calling thread opens inside
/// it carry its request id.
class Request {
public:
  Request(const char *Name, uint32_t Kind)
      : S(Name, "bench"), Prev(detail::CurrentReq) {
    detail::CurrentReq =
        simtvec::trace::enabled()
            ? detail::NextReq.fetch_add(1, std::memory_order_relaxed)
            : 0;
    S.arg("req", detail::CurrentReq);
    S.arg("kind", Kind);
  }
  ~Request() { detail::CurrentReq = Prev; }
  Request(const Request &) = delete;
  Request &operator=(const Request &) = delete;

  /// Records that the request was sent \p Seconds after it was due: the
  /// first part of its blocking path, before the root span opened.
  void queueWait(double Seconds) {
    simtvec::trace::instant(QueueWaitEvent, "bench",
                            static_cast<uint64_t>(std::max(Seconds, 0.0) * 1e9),
                            "wait_ns", detail::CurrentReq, "req");
  }

private:
  simtvec::trace::Span S;
  uint64_t Prev;
};

/// The layer a span's time belongs to. The benchmark's spans are named by
/// their category; the program's own categories map onto the module that
/// records them, except CTA spans (the per-CTA warp loop, nearly all of it
/// subkernel execution), which count as `vm`.
inline std::string layerOf(const simtvec::trace::Event &E) {
  const char *Cat = E.Cat ? E.Cat : "";
  auto Is = [&](const char *S) { return std::strcmp(Cat, S) == 0; };
  if (Is("em") && E.Name && std::strcmp(E.Name, "cta") == 0)
    return "vm";
  if (Is("em") || Is("cache") || Is("autotune") || Is("counters"))
    return "core";
  if (Is("stream") || Is("pool") || Is("graph"))
    return "runtime";
  return Cat;
}

/// Accumulates trace sessions: per-layer self time (each span's duration
/// minus its direct children's, summed over every thread) and one blocking
/// path per request (its queue wait plus the durations of its root span's
/// direct children).
struct TraceFold {
  std::map<std::string, double> SelfSeconds;
  /// (kind, seconds) per request, in root start order within each session.
  std::vector<std::pair<size_t, double>> Paths;

  void add(const std::vector<simtvec::trace::ThreadEvents> &Threads) {
    using simtvec::trace::Event;
    using simtvec::trace::Kind;
    struct Root {
      uint64_t Start, Req, Kind, PathNs;
    };
    std::vector<Root> Roots;
    std::map<uint64_t, uint64_t> WaitNs; // req -> queue wait
    auto Named = [](const char *A, const char *B) {
      return A && std::strcmp(A, B) == 0;
    };
    for (const simtvec::trace::ThreadEvents &T : Threads) {
      std::vector<const Event *> Spans;
      for (const Event &E : T.Events) {
        if (E.Ph == Kind::Span)
          Spans.push_back(&E);
        else if (E.Ph == Kind::Instant && Named(E.Name, QueueWaitEvent))
          WaitNs[E.A1] += E.A0;
      }
      // Outer spans first: by start, and the longer of two that start
      // together.
      std::stable_sort(Spans.begin(), Spans.end(),
                       [](const Event *A, const Event *B) {
                         return A->Ts != B->Ts ? A->Ts < B->Ts
                                               : A->Dur > B->Dur;
                       });
      const size_t None = Spans.size();
      std::vector<size_t> Parent(Spans.size(), None), Open;
      std::vector<uint64_t> ChildNs(Spans.size(), 0);
      for (size_t I = 0; I < Spans.size(); ++I) {
        const Event &E = *Spans[I];
        while (!Open.empty()) {
          const Event &P = *Spans[Open.back()];
          if (P.Ts <= E.Ts && E.Ts + E.Dur <= P.Ts + P.Dur)
            break;
          Open.pop_back();
        }
        if (!Open.empty()) {
          Parent[I] = Open.back();
          ChildNs[Open.back()] += E.Dur;
        }
        Open.push_back(I);
      }
      std::map<size_t, size_t> RootOf; // span index -> Roots index
      for (size_t I = 0; I < Spans.size(); ++I) {
        const Event &E = *Spans[I];
        SelfSeconds[layerOf(E)] +=
            static_cast<double>(E.Dur - std::min(ChildNs[I], E.Dur)) * 1e-9;
        if (Named(E.Cat, "bench") && Named(E.K0, "req") &&
            Named(E.K1, "kind")) {
          RootOf[I] = Roots.size();
          Roots.push_back({E.Ts, E.A0, E.A1, 0});
        }
      }
      for (size_t I = 0; I < Spans.size(); ++I)
        if (auto It = RootOf.find(Parent[I]); It != RootOf.end())
          Roots[It->second].PathNs += Spans[I]->Dur;
    }
    std::stable_sort(Roots.begin(), Roots.end(),
                     [](const Root &A, const Root &B) {
                       return A.Start < B.Start;
                     });
    for (const Root &R : Roots) {
      auto It = WaitNs.find(R.Req);
      uint64_t Wait = It == WaitNs.end() ? 0 : It->second;
      Paths.push_back({static_cast<size_t>(R.Kind),
                       static_cast<double>(R.PathNs + Wait) * 1e-9});
    }
  }
};

} // namespace perfbench

#endif // SIMTVEC_PERFBENCH_TRACING_H
