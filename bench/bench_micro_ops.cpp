// Micro benchmarks (google-benchmark): uncontended single-op costs of
// every queue — the floor each design pays before scalability enters.
// Complements the figure benches, which measure contended throughput.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "harness/queue_adapters.hpp"
#include "wcq/concepts.hpp"

namespace {

inline wcq::options micro_opts() {
  return wcq::options{}.max_threads(2).order(12);
}

template <wcq::concepts::Queue Q>
void BM_pairwise(benchmark::State& state) {
  Q q(micro_opts());
  auto handle = q.get_handle();
  for (auto _ : state) {
    while (!q.try_push(7, handle)) {
    }
    benchmark::DoNotOptimize(q.try_pop(handle));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}

template <wcq::concepts::Queue Q>
void BM_empty_dequeue(benchmark::State& state) {
  Q q(micro_opts());
  auto handle = q.get_handle();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.try_pop(handle));
  }
  state.SetItemsProcessed(state.iterations());
}

template <wcq::concepts::Queue Q>
void BM_enqueue_burst(benchmark::State& state) {
  // 256 enqueues then 256 dequeues per iteration: the queue actually
  // holds elements, unlike the pairwise ping-pong.
  Q q(micro_opts());
  auto handle = q.get_handle();
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      while (!q.try_push(static_cast<std::uint64_t>(i), handle)) {
      }
    }
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(q.try_pop(handle));
    }
  }
  state.SetItemsProcessed(state.iterations() * 512);
}

// Construction plus 4 handle registrations at order state.range(0):
// the setup a user pays before the first op (perfbench's setup_s, on
// one thread and without its host noise). Teardown runs untimed.
template <wcq::concepts::Queue Q>
void BM_construct(benchmark::State& state) {
  const auto opt = wcq::options{}.max_threads(8).order(
      static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    auto q = std::make_unique<Q>(opt);
    std::vector<decltype(q->get_handle())> handles;
    handles.reserve(4);
    for (int t = 0; t < 4; ++t) handles.push_back(q->get_handle());
    benchmark::DoNotOptimize(q.get());
    state.PauseTiming();
    handles.clear();
    q.reset();
    state.ResumeTiming();
  }
}

}  // namespace

#define WCQ_MICRO(Adapter)                                      \
  BENCHMARK_TEMPLATE(BM_pairwise, wcq::harness::Adapter);       \
  BENCHMARK_TEMPLATE(BM_empty_dequeue, wcq::harness::Adapter);  \
  BENCHMARK_TEMPLATE(BM_enqueue_burst, wcq::harness::Adapter)

WCQ_MICRO(WcqAdapter);
WCQ_MICRO(WcqPortableAdapter);
WCQ_MICRO(ScqAdapter);
WCQ_MICRO(LcrqAdapter);
WCQ_MICRO(MsqAdapter);
WCQ_MICRO(CcqAdapter);
WCQ_MICRO(FaaAdapter);
WCQ_MICRO(LscqAdapter);

BENCHMARK_TEMPLATE(BM_construct, wcq::harness::WcqAdapter)->Arg(10)->Arg(16);
BENCHMARK_TEMPLATE(BM_construct, wcq::harness::ScqAdapter)->Arg(10)->Arg(16);
BENCHMARK_TEMPLATE(BM_construct, wcq::harness::LscqAdapter)->Arg(10)->Arg(16);
BENCHMARK_TEMPLATE(BM_construct, wcq::harness::ShardedWcqAdapter)
    ->Arg(10)
    ->Arg(16);

BENCHMARK_MAIN();
