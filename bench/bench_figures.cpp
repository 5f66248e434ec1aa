// The paper's evaluation (Figs. 10-12) and the §6 ablations as one
// binary:
//
//   bench_figures <figure|all> [--threads 1,2,4] [--ops N] [--runs R]
//
// Every figure runs a closed loop over a thread sweep and prints JSON
// lines: the host fingerprint first, then one object per point with
// the median Mop/s over runs and its min-max band, sampled per-op
// latency where the figure times ops, and the queue's counters. The
// paper's methodology is `all --ops 10000000 --runs 10 --threads
// 1,2,4,8,18,36,72,144`; docs/BENCHMARKING.md lists the fields.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "harness/bench_io.hpp"
#include "harness/driver.hpp"
#include "harness/latency.hpp"
#include "harness/queue_adapters.hpp"
#include "wcq/concepts.hpp"

namespace {

using namespace wcq;
using harness::BenchArgs;
using harness::JsonLine;

// 1 op in 64 is timed: two clock reads on every ~40 ns op would halve
// the throughput they sit beside.
constexpr unsigned kSamplePeriod = 64;
// Values per try_push_n / try_pop_n call in the sharded batch series.
constexpr unsigned kBatch = 64;

enum class Load { empty, pairwise, mixed, memory, batch };

const char* load_name(Load load) {
  switch (load) {
    case Load::empty:
      return "empty";
    case Load::pairwise:
      return "pairwise";
    case Load::mixed:
      return "mixed";
    case Load::memory:
      return "memory";
    case Load::batch:
      return "batch";
  }
  return "?";
}

// One worker's `ops` operations of `load`. `time(op)` runs op, timing
// it when the point samples latency.
template <concepts::Queue Q, typename Time>
void drive(Load load, Q& q, typename Q::handle& h, Xoshiro256& rng,
           std::uint64_t ops, Time&& time) {
  switch (load) {
    case Load::empty:  // Fig. 11a: dequeue an always-empty queue
      for (std::uint64_t i = 0; i < ops; ++i) time([&] { (void)q.try_pop(h); });
      return;
    case Load::pairwise:  // Fig. 11b: enqueue, then dequeue
      for (std::uint64_t i = 0; i < ops / 2; ++i) {
        time([&] {
          while (!q.try_push(i & 0xffff, h)) {
          }
        });
        time([&] { (void)q.try_pop(h); });
      }
      return;
    case Load::mixed:  // Fig. 11c: 50%/50% random
    case Load::memory:  // Fig. 10: the same, with tiny random delays
      for (std::uint64_t i = 0; i < ops; ++i) {
        if (rng.chance_pct(50)) {
          time([&] {
            while (!q.try_push(i & 0xffff, h)) {
              if (!q.try_pop(h)) break;  // bounded queue full: make room
            }
          });
        } else {
          time([&] { (void)q.try_pop(h); });
        }
        if (load == Load::memory) spin_delay(rng.next_below(32));
      }
      return;
    case Load::batch: {  // pairwise through try_push_n / try_pop_n
      std::vector<std::uint64_t> in(kBatch), out(kBatch);
      for (unsigned i = 0; i < kBatch; ++i) in[i] = i;
      for (std::uint64_t done = 0; done < ops / 2; done += kBatch) {
        time([&] {
          std::size_t pushed = 0;
          while (pushed < kBatch) {
            pushed += q.try_push_n(in.data() + pushed, kBatch - pushed, h);
            if (pushed < kBatch) {
              (void)q.try_pop_n(out.data(), kBatch - pushed, h);
            }
          }
        });
        time([&] {
          std::size_t popped = 0;
          while (popped < kBatch) {
            const std::size_t k =
                q.try_pop_n(out.data() + popped, kBatch - popped, h);
            if (k == 0) break;  // another worker drained our values
            popped += k;
          }
        });
      }
      return;
    }
  }
}

double per_1k(std::uint64_t events, std::uint64_t ops) {
  return 1000.0 * static_cast<double>(events) / static_cast<double>(ops);
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

JsonLine label(const char* figure, const std::string& series) {
  return JsonLine{}.str("figure", figure).str("series", series);
}

// Measures Q under `load` at each thread count of `sweep` and prints
// one line per point: the labels in `at`, then the measurements.
template <concepts::Queue Q>
void series(const BenchArgs& args, const JsonLine& at, Load load,
            const std::vector<unsigned>& sweep, options opts = {},
            bool timed = false) {
  for (const unsigned threads : sweep) {
    opts.max_threads(threads + 2);
    std::uint64_t per_thread = args.ops / threads;
    // The delays make a memory-test op several times dearer.
    if (load == Load::memory) {
      per_thread = std::max<std::uint64_t>(1, per_thread / 4);
    }
    const std::uint64_t total = per_thread * threads;
    std::unique_ptr<Q> q;
    auto setup = [&] {
      q.reset();  // the previous run's queue goes before the counters reset
      mem::reset();
      q = std::make_unique<Q>(opts);
    };
    auto body = [&](unsigned worker, harness::LatencyHistogram& hist) {
      auto h = q->get_handle();
      Xoshiro256 rng(0x1234u + worker * 7919u);
      if (timed) {
        harness::OpSampler sampler(hist, kSamplePeriod);
        drive(load, *q, h, rng, per_thread,
              [&](auto&& op) { harness::maybe_timed(sampler, op); });
      } else {
        drive(load, *q, h, rng, per_thread, [](auto&& op) { op(); });
      }
    };
    const auto res =
        harness::repeat_measure(args.runs, threads, total, setup, body);
    JsonLine line = at;
    line.num("threads", threads)
        .num("ops", total)
        .num("runs", args.runs)
        .num("mops", res.median_mops)
        .num("mops_min", res.min_mops)
        .num("mops_max", res.max_mops);
    if (timed) {
      line.num("p50_ns", res.latency.p50())
          .num("p99_ns", res.latency.p99())
          .num("p999_ns", res.latency.p999())
          .num("max_ns", res.latency.max());
    }
    if (load == Load::memory) {
      line.num("alloc_peak_mb", mib(mem::stats().peak_bytes))
          .num("rss_mb", mib(mem::rss_bytes()));
    }
    // Counters of the last run's queue, which is still alive.
    if constexpr (concepts::ObservableQueue<Q>) {
      const auto st = q->stats();
      line.num("slow_per_1k", per_1k(st.slow_enqueues + st.slow_dequeues,
                                     total))
          .num("helps_per_1k", per_1k(st.helps, total));
    }
    std::printf("%s\n", line.text().c_str());
    std::fflush(stdout);
  }
}

template <typename... Q>
struct Queues {
  template <typename F>
  static void each(F&& f) {
    (f.template operator()<Q>(), ...);
  }
};

// The implemented lineup in the paper's legend order. Fig. 12 runs the
// portable wCQ build and drops LCRQ, which needs a true CAS2 that the
// paper's POWER machine lacks.
using PaperLineup =
    Queues<harness::FaaAdapter, harness::WcqAdapter, harness::NcqAdapter,
           harness::CcqAdapter, harness::ScqAdapter, harness::MsqAdapter,
           harness::LcrqAdapter, harness::LscqAdapter>;
using PortableLineup =
    Queues<harness::FaaAdapter, harness::WcqPortableAdapter,
           harness::CcqAdapter, harness::ScqAdapter, harness::MsqAdapter>;

void paper_figure(const BenchArgs& args, const char* figure, Load load,
                  bool timed) {
  PaperLineup::each([&]<typename Q>() {
    series<Q>(args, label(figure, Q::kName), load, args.threads, {}, timed);
  });
}

void fig12(const BenchArgs& args) {
  for (const Load load : {Load::empty, Load::pairwise, Load::mixed}) {
    PortableLineup::each([&]<typename Q>() {
      JsonLine at = label("fig12", Q::kName);
      at.str("workload", load_name(load));
      series<Q>(args, at, load, args.threads);
    });
  }
}

// The ablations hold the thread count at the sweep's widest.
std::vector<unsigned> widest(const BenchArgs& args) {
  return {*std::max_element(args.threads.begin(), args.threads.end())};
}

// §6 sets MAX_PATIENCE to 16 (enqueue) and 64 (dequeue); the sweep
// keeps that 1:4 ratio.
void patience(const BenchArgs& args) {
  for (const unsigned p : {1u, 4u, 16u, 64u, 256u}) {
    for (const Load load : {Load::pairwise, Load::mixed}) {
      JsonLine at = label("patience", "wCQ");
      at.str("workload", load_name(load)).num("patience", p);
      series<harness::WcqAdapter>(args, at, load, widest(args),
                                  options{}.patience(p, p * 4));
    }
  }
}

void help_delay(const BenchArgs& args) {
  for (const unsigned d : {1u, 4u, 16u, 64u, 256u}) {
    JsonLine at = label("help_delay", "wCQ");
    at.num("help_delay", d);
    series<harness::WcqAdapter>(args, at, Load::pairwise, widest(args),
                                options{}.help_delay(d));
  }
}

void remap(const BenchArgs& args) {
  Queues<harness::WcqAdapter, harness::ScqAdapter>::each([&]<typename Q>() {
    for (const bool on : {true, false}) {
      const char* suffix = on ? "+remap" : "-remap";
      series<Q>(args, label("remap", Q::kName + std::string(suffix)),
                Load::pairwise, args.threads, options{}.remap(on));
    }
  });
}

void ring_order(const BenchArgs& args) {
  Queues<harness::WcqAdapter, harness::ScqAdapter>::each([&]<typename Q>() {
    for (const unsigned order : {8u, 10u, 12u, 15u, 17u}) {
      series<Q>(args, label("ring_order", Q::kName).num("order", order),
                Load::pairwise, widest(args), options{}.order(order));
    }
  });
}

// wcq::sharded over 1, 2, 4 and 8 shards (never more shards than
// threads) and both pickers, against single-ring wCQ and FAA. The
// "+batch" series drive try_push_n / try_pop_n; over FAA a batch is
// one ticket burst per 1,024-cell segment it lands in.
void sharded(const BenchArgs& args) {
  using ShardedWcq = harness::ShardedWcqAdapter;
  using ShardedFaa = harness::ShardedFaaAdapter;
  series<harness::WcqAdapter>(args, label("sharded", "wCQ"), Load::pairwise,
                              args.threads, {}, true);
  series<harness::FaaAdapter>(args, label("sharded", "FAA"), Load::pairwise,
                              args.threads, {}, true);
  for (const unsigned s : {1u, 2u, 4u, 8u}) {
    std::vector<unsigned> sweep;
    for (const unsigned t : args.threads) {
      if (t >= s) sweep.push_back(t);
    }
    const std::string name = "shard=" + std::to_string(s);
    series<ShardedWcq>(args, label("sharded", "wCQ " + name + "/rr"),
                       Load::pairwise, sweep, options{}.shards(s), true);
    series<ShardedWcq>(
        args, label("sharded", "wCQ " + name + "/sticky"), Load::pairwise,
        sweep, options{}.shards(s).shard_policy(shard_policy::sticky), true);
    series<ShardedWcq>(args, label("sharded", "wCQ " + name + "/rr+batch"),
                       Load::batch, sweep, options{}.shards(s), true);
    series<ShardedFaa>(args, label("sharded", "FAA " + name + "/rr+batch"),
                       Load::batch, sweep, options{}.shards(s), true);
  }
}

void run(std::string_view figure, const BenchArgs& args) {
  if (figure == "fig10") paper_figure(args, "fig10", Load::memory, false);
  if (figure == "fig11a") paper_figure(args, "fig11a", Load::empty, false);
  if (figure == "fig11b") paper_figure(args, "fig11b", Load::pairwise, true);
  if (figure == "fig11c") paper_figure(args, "fig11c", Load::mixed, true);
  if (figure == "fig12") fig12(args);
  if (figure == "patience") patience(args);
  if (figure == "help_delay") help_delay(args);
  if (figure == "remap") remap(args);
  if (figure == "ring_order") ring_order(args);
  if (figure == "sharded") sharded(args);
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  const auto args = harness::parse_args(argc, argv, error);
  if (!args) {
    std::fprintf(stderr, "bench_figures: %s\n%s\n", error.c_str(),
                 harness::bench_usage().c_str());
    return 2;
  }
  std::printf("%s\n", harness::host_line().c_str());
  if (args->figure == "all") {
    for (const std::string_view f : harness::kFigures) run(f, *args);
  } else {
    run(args->figure, *args);
  }
  return 0;
}
