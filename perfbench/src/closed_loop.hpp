// One closed-loop round: kThreads workers run a workload against a
// fresh queue for a fixed slice of wall-clock time, then the queue is
// drained and the whole history is checked.
//
// Each worker issues its next op as soon as the previous one returns.
// Every kSampleEvery-th op is timed (service time, two clock reads);
// a traced round instead records every op as a span into a per-thread
// ring buffer, and the difference between the two is the tracing
// overhead the traced run reports.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "checker.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "workload.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr std::uint64_t kSampleEvery = 32;  // power of two
inline constexpr std::size_t kSpanRing = 4096;     // power of two
// How long after its slice a round may take to stop before its
// workers count as stuck (a thread spinning in the slow path, say).
inline constexpr std::uint64_t kGraceNs = 5'000'000'000;

enum OpKind : std::uint8_t { kPush, kRefused, kPop, kEmpty };

struct Span {
  std::uint64_t start_ns;
  std::uint32_t dur_ns;
  std::uint8_t kind;
};

inline std::uint32_t clamp_ns(std::uint64_t d) {
  return d > 0xffffffffu ? 0xffffffffu : static_cast<std::uint32_t>(d);
}

struct RunParams {
  std::uint64_t seed = 0;
  std::uint64_t key = 0;
};

struct RoundResult {
  double mops = 0.0;  // accepted pushes + non-empty pops, per µs
  std::uint64_t attempted = 0;
  std::uint64_t moved = 0;
  std::uint64_t pops = 0;  // including empty ones
  std::uint64_t empties = 0;
  std::uint64_t refused = 0;
  std::uint64_t allocs = 0;  // mem::alloc calls after construction
  double peak_mb = 0.0;
  Verdict verdict;
  std::vector<std::uint32_t> samples;  // sampled service times
  std::vector<std::vector<Span>> spans;  // traced rounds, per thread
};

namespace detail {

inline void pin_to_cpu(unsigned worker) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 0) return;
  int want = static_cast<int>(worker % static_cast<unsigned>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (want-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      return;
    }
  }
#else
  (void)worker;
#endif
}

struct alignas(128) Worker {
  Worker(std::uint64_t key, bool fifo) : log(kThreads, key, fifo) {}
  std::uint64_t pushed = 0;
  std::uint64_t refused = 0;
  std::uint64_t popped = 0;
  std::uint64_t empty = 0;
  std::uint64_t end_ns = 0;
  ConsumerLog log;
  std::vector<std::uint32_t> samples;
  std::vector<Span> spans;
  std::uint64_t span_count = 0;
  std::atomic<bool> done{false};
};

struct Control {
  alignas(128) std::atomic<unsigned> ready{0};
  alignas(128) std::atomic<bool> go{false};
  alignas(128) std::atomic<bool> stop{false};
};

template <bool Traced, typename Q>
void work(Q& q, const Spec& spec, const RunParams& rp, unsigned tid,
          Control& ctl, Worker& w) {
  pin_to_cpu(tid);
  auto h = q.get_handle();
  BurstLengths lengths(rp.seed, tid, spec.burst);
  ctl.ready.fetch_add(1, std::memory_order_acq_rel);
  while (!ctl.go.load(std::memory_order_acquire)) std::this_thread::yield();

  std::uint64_t n = 0;
  auto note = [&](std::uint64_t t0, std::uint64_t t1, OpKind k) {
    if constexpr (Traced) {
      w.spans[w.span_count++ & (kSpanRing - 1)] =
          Span{t0, clamp_ns(t1 - t0), k};
    } else {
      (void)k;
      w.samples.push_back(clamp_ns(t1 - t0));
    }
  };
  auto push = [&]() {
    const std::uint64_t v = tag(tid, w.pushed) ^ rp.key;
    bool ok = false;
    if (Traced || (++n & (kSampleEvery - 1)) == 0) {
      const std::uint64_t t0 = now_ns();
      ok = q.try_push(v, h);
      note(t0, now_ns(), ok ? kPush : kRefused);
    } else {
      ok = q.try_push(v, h);
    }
    ok ? ++w.pushed : ++w.refused;
    return ok;
  };
  auto pop = [&]() {
    std::optional<std::uint64_t> v;
    if (Traced || (++n & (kSampleEvery - 1)) == 0) {
      const std::uint64_t t0 = now_ns();
      v = q.try_pop(h);
      note(t0, now_ns(), v ? kPop : kEmpty);
    } else {
      v = q.try_pop(h);
    }
    if (!v) {
      ++w.empty;
      return false;
    }
    w.log.observe(*v);
    ++w.popped;
    return true;
  };

  const std::atomic<bool>& stop = ctl.stop;
  switch (spec.kind) {
    case Kind::pairwise:
      while (!stop.load(std::memory_order_relaxed)) {
        push();
        pop();
      }
      break;
    case Kind::poll:
      while (!stop.load(std::memory_order_relaxed)) {
        push();
        pop();
        pop();
      }
      break;
    case Kind::burst:
      while (!stop.load(std::memory_order_relaxed)) {
        const unsigned k = lengths.next();
        unsigned mine = 0;
        while (mine < k && push()) ++mine;
        // Pop as many as were pushed; empties here are spurious (every
        // thread pops only after pushing) and are retried.
        while (mine > 0 && !stop.load(std::memory_order_relaxed)) {
          if (pop()) --mine;
        }
      }
      break;
  }
  w.end_ns = now_ns();
  w.done.store(true, std::memory_order_release);
}

}  // namespace detail

// Called when a round's workers do not stop within kGraceNs of the
// slice end: they are wedged inside a queue op, cannot be joined, and
// the process must report and exit. Set by main.
inline void (*on_wedged)(std::uint64_t stuck_threads) = nullptr;

// Runs round number `round` against a fresh Q(opt). `fifo` enables the
// per-producer order check (linearizable subjects only). `inspect(q,
// result)` reads the queue's own counters before it is destroyed.
template <typename Q, bool Traced, typename Inspect>
RoundResult run_round(const Spec& spec, const wcq::options& opt, bool fifo,
                      const RunParams& rp, std::uint64_t round,
                      double slice_s, Inspect&& inspect) {
  wcq::mem::reset();  // no queue is live here
  // The allocator would hand every round's queue the same addresses,
  // so the few contended lines (head, tail, threshold) would sit in the
  // same L3 slice for a whole run, and the run, not the round, would be
  // the unit of noise. A seeded 0-64 KiB ballast allocated just before
  // the queue moves them from round to round.
  const std::vector<char> ballast(64 * (mix(rp.seed ^ mix(round)) % 1025));
  auto q = std::make_unique<Q>(opt);
  const std::uint64_t allocs0 = wcq::mem::stats().total_allocs;

  detail::Control ctl;
  std::vector<std::unique_ptr<detail::Worker>> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.push_back(std::make_unique<detail::Worker>(rp.key, fifo));
    if constexpr (Traced) {
      workers.back()->spans.resize(kSpanRing);
    } else {
      workers.back()->samples.reserve(
          static_cast<std::size_t>(slice_s * 2e7 / kSampleEvery));
    }
  }
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      detail::work<Traced>(*q, spec, rp, t, ctl, *workers[t]);
    });
  }
  while (ctl.ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  const std::uint64_t t0 = now_ns();
  ctl.go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(slice_s));
  ctl.stop.store(true, std::memory_order_relaxed);

  const std::uint64_t deadline = now_ns() + kGraceNs;
  for (;;) {
    std::uint64_t stuck = 0;
    for (const auto& w : workers) {
      stuck += w->done.load(std::memory_order_acquire) ? 0 : 1;
    }
    if (stuck == 0) break;
    if (now_ns() > deadline) {
      on_wedged(stuck);
      std::_Exit(3);  // on_wedged exits; never join a wedged thread
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& th : threads) th.join();

  RoundResult r;
  std::uint64_t end = t0;
  std::vector<std::uint64_t> pushed;
  std::vector<const ConsumerLog*> logs;
  for (const auto& w : workers) {
    end = std::max(end, w->end_ns);
    pushed.push_back(w->pushed);
    logs.push_back(&w->log);
    r.moved += w->pushed + w->popped;
    r.pops += w->popped + w->empty;
    r.empties += w->empty;
    r.refused += w->refused;
    r.attempted += w->pushed + w->refused + w->popped + w->empty;
  }
  r.allocs = wcq::mem::stats().total_allocs - allocs0;
  r.mops = static_cast<double>(r.moved) * 1e3 /
           static_cast<double>(std::max<std::uint64_t>(end - t0, 1));

  ConsumerLog drain(kThreads, rp.key, fifo);
  {
    auto h = q->get_handle();
    while (auto v = q->try_pop(h)) drain.observe(*v);
  }
  logs.push_back(&drain);
  r.verdict = check(pushed, logs);
  r.peak_mb = static_cast<double>(wcq::mem::stats().peak_bytes) / 1e6;
  inspect(*q, r);

  for (auto& w : workers) {
    if constexpr (Traced) {
      w->spans.resize(std::min<std::uint64_t>(w->span_count, kSpanRing));
      r.spans.push_back(std::move(w->spans));
    } else {
      r.samples.insert(r.samples.end(), w->samples.begin(), w->samples.end());
    }
  }
  return r;
}

}  // namespace perfbench
