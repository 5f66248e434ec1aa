// Figure 10's claim for the bounded queues: all memory is allocated at
// construction. After a queue and its 4 handles are set up, a 4-thread
// push/pop churn through full and empty episodes must not allocate or
// free a single byte through mem::alloc — the counting allocator every
// queue routes its memory through. The queues are picked by name on
// the command line: wcq, wcq-portable, scq, ncq, ccq, sharded-wcq.
// LSCQ (`lscq`) is unbounded and runs as the control: the same churn
// must show its segment allocations, so a meter that sees nothing
// cannot pass the others.
#include <barrier>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "queue_test_common.hpp"
#include "wcq/mem.hpp"

namespace {

using namespace wcq;

constexpr unsigned kThreads = 4;
constexpr unsigned kOrder = 6;  // capacity 64
constexpr std::uint64_t kCap = std::uint64_t{1} << kOrder;

std::uint64_t waves() { return test::env_ops(40000) / 1000; }

// What one churn did: allocations made between setup and teardown,
// and the refused pushes and empty pops that mark its episodes.
struct Churn {
  std::uint64_t allocs;
  std::int64_t live_bytes;
  std::uint64_t refused;
  std::uint64_t empty;
};

// Lockstep waves: in a push wave every thread tries kCap pushes, 4x
// what a bounded queue holds, so at least 3*kCap are refused (a full
// episode); a pop wave mirrors it into an empty episode. A free mix
// follows, and the survivors are drained. Every accepted value must
// come out exactly once.
template <concepts::Queue Q>
Churn churn(const char* name) {
  Q q(options{}.max_threads(kThreads + 1).order(kOrder));
  std::vector<decltype(q.get_handle())> handles;
  handles.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) handles.push_back(q.get_handle());
  const mem::Stats before = mem::stats();

  const std::uint64_t rounds = waves();
  std::barrier sync(kThreads);
  std::vector<std::uint64_t> pushed(kThreads, 0), popped(kThreads, 0);
  std::vector<std::uint64_t> refused(kThreads, 0), empty(kThreads, 0);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& h = handles[t];
      const auto push = [&](std::uint64_t v) {
        if (q.try_push(v, h)) {
          ++pushed[t];
        } else {
          ++refused[t];
        }
      };
      const auto pop = [&] {
        if (q.try_pop(h)) {
          ++popped[t];
        } else {
          ++empty[t];
        }
      };
      for (std::uint64_t w = 0; w < rounds; ++w) {
        for (std::uint64_t i = 0; i < kCap; ++i) push(w * kCap + i);
        sync.arrive_and_wait();
        for (std::uint64_t i = 0; i < kCap; ++i) pop();
        sync.arrive_and_wait();
      }
      Xoshiro256 rng(0x3e3017 + t);
      for (std::uint64_t i = 0; i < rounds * kCap; ++i) {
        if (rng.next() % 2 == 0) {
          push(i);
        } else {
          pop();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t drained = 0;
  while (q.try_pop(handles[0])) ++drained;
  const mem::Stats after = mem::stats();

  std::uint64_t in = 0, out = drained, full = 0, none = 0;
  for (unsigned t = 0; t < kThreads; ++t) {
    in += pushed[t];
    out += popped[t];
    full += refused[t];
    none += empty[t];
  }
  WCQ_CHECK(in == out, "%s: %llu pushes accepted but %llu popped", name,
            (unsigned long long)in, (unsigned long long)out);
  return {after.total_allocs - before.total_allocs,
          static_cast<std::int64_t>(after.live_bytes - before.live_bytes),
          full, none};
}

template <concepts::Queue Q>
void test_bounded(const char* name) {
  const Churn c = churn<Q>(name);
  const std::uint64_t episodes = waves() * 3 * kCap;
  WCQ_CHECK(c.refused >= episodes && c.empty >= episodes,
            "%s: %llu refused pushes and %llu empty pops, want >= %llu each",
            name, (unsigned long long)c.refused, (unsigned long long)c.empty,
            (unsigned long long)episodes);
  WCQ_CHECK(c.allocs == 0 && c.live_bytes == 0,
            "%s: churn allocated %llu times, live bytes moved by %lld", name,
            (unsigned long long)c.allocs, (long long)c.live_bytes);
  std::printf(
      "  ok memory_bound      %s (no allocation; %llu refused pushes, %llu "
      "empty pops)\n",
      name, (unsigned long long)c.refused, (unsigned long long)c.empty);
}

}  // namespace

int main(int argc, char** argv) {
  using test::selected;
  if (selected(argc, argv, "wcq")) {
    test_bounded<harness::WcqAdapter>("wcq");
  }
  if (selected(argc, argv, "wcq-portable")) {
    test_bounded<harness::WcqPortableAdapter>("wcq-portable");
  }
  if (selected(argc, argv, "scq")) test_bounded<harness::ScqAdapter>("scq");
  if (selected(argc, argv, "ncq")) test_bounded<harness::NcqAdapter>("ncq");
  if (selected(argc, argv, "ccq")) test_bounded<harness::CcqAdapter>("ccq");
  if (selected(argc, argv, "sharded-wcq")) {
    test_bounded<harness::ShardedWcqAdapter>("sharded-wcq");
  }
  if (selected(argc, argv, "lscq")) {
    const Churn c = churn<harness::LscqAdapter>("lscq");
    WCQ_CHECK(c.allocs > 0, "lscq: the meter saw no segment allocation");
    std::printf("  ok memory_control    lscq (%llu allocations seen)\n",
                (unsigned long long)c.allocs);
  }
  return 0;
}
