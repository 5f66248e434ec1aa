// Measurement driver: spawn N pinned workers, release them through a
// spin barrier, time the run wall-clock, repeat, and report the median
// Mops/s with the min and max over runs as its noise band — plus, when
// the body records into its per-thread histogram, merged per-op
// latency percentiles.
//
// The load is a closed loop: each worker issues its next op the moment
// the previous one returns, so the system always runs at saturation
// and the figure is throughput. Closed-loop latency suffers
// coordinated omission (a slow op also delays the issue of every op
// behind it), so its percentiles are service times, not response
// times.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "harness/latency.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wcq::harness {

struct MeasureResult {
  // Mops/s over runs: the median and its min-max noise band.
  double median_mops = 0.0;
  double min_mops = 0.0;
  double max_mops = 0.0;
  // Per-op service latency (ns), merged across threads and runs;
  // empty (count()==0) unless the body recorded samples.
  LatencyHistogram latency;
};

// Pin the calling worker to the (worker mod n)-th of the n CPUs it is
// allowed to run on, so a run started under a narrowed mask (taskset,
// a cpuset) stays inside it.
inline void pin_to_cpu(unsigned worker) {
#if defined(__linux__)
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int n = CPU_COUNT(&allowed);
  if (n <= 0) return;
  int want = static_cast<int>(worker % static_cast<unsigned>(n));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
#else
  (void)worker;
#endif
}

// Run `body(worker, hist)` on `threads` workers, `runs` times;
// `setup()` is invoked before each run (fresh queue per run).
// `total_ops` is the op count a full run performs, used for the Mops/s
// figure. Each worker gets a private LatencyHistogram (no sharing on
// the record path); all of them are merged into the result.
template <typename Setup, typename Body>
MeasureResult repeat_measure(unsigned runs, unsigned threads,
                             std::uint64_t total_ops, Setup&& setup,
                             Body&& body) {
  if (runs == 0) runs = 1;
  if (threads == 0) threads = 1;
  MeasureResult res;
  std::vector<double> mops;
  mops.reserve(runs);
  std::vector<LatencyHistogram> hists(threads);
  for (unsigned r = 0; r < runs; ++r) {
    setup();
    for (auto& h : hists) h.reset();
    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.emplace_back([&, w] {
        pin_to_cpu(w);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) {
          // Yield, not pause: keeps oversubscribed small machines live.
          std::this_thread::yield();
        }
        body(w, hists[w]);
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) {
      std::this_thread::yield();
    }
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : workers) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    mops.push_back(secs > 0.0
                       ? static_cast<double>(total_ops) / 1e6 / secs
                       : 0.0);
    for (const auto& h : hists) res.latency.merge(h);
  }
  std::sort(mops.begin(), mops.end());
  const std::size_t mid = mops.size() / 2;
  res.median_mops = mops.size() % 2 == 1 ? mops[mid]
                                         : (mops[mid - 1] + mops[mid]) / 2;
  res.min_mops = mops.front();
  res.max_mops = mops.back();
  return res;
}

}  // namespace wcq::harness
