// perfbench — the measuring program of the repository benchmark.
//
//   perfbench --workload <pairwise|poll|burst> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file>]
//   perfbench --about
//
// --trace 0 prints the end-to-end metrics of three public queue types
// (wcq, sharded, lscq); --trace 1 prints the per-layer metrics. The
// last stdout line is the result object; the line before it carries
// details (sample counts, per-round figures, violations). perfbench/
// run.py builds this program and is the command to run; the metrics
// and workloads are described in perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "checker.hpp"
#include "closed_loop.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "wcq/lscq.hpp"
#include "wcq/mem.hpp"
#include "wcq/options.hpp"
#include "wcq/queue.hpp"
#include "wcq/scq.hpp"
#include "wcq/sharded.hpp"
#include "wcq/smr.hpp"
#include "wcq/wcq.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

using WcqQ = wcq::queue<std::uint64_t>;
using ShardedQ = wcq::sharded<std::uint64_t>;
using LscqQ = wcq::queue<std::uint64_t, wcq::LscqQueue>;

// Handle slots per queue: the workers, the drain and some slack, as an
// application that knows its thread count would size it. It sizes
// wCQ's thread records and LSCQ's SMR amnesty (2 x slots per slot).
constexpr unsigned kMaxHandles = 8;
constexpr unsigned kSubjects = 3;
constexpr unsigned kShardBits = 2;  // the sharded subject's 4 shards
// End-to-end: the run is cut into rounds of about kSliceS per subject,
// interleaved across subjects so a slow phase of the host hits all
// three alike; figures are medians over rounds.
constexpr double kSliceS = 0.5;
// Set-up is timed at least kSetupReps times per subject and until
// kSetupBudgetS of it has been timed (small rings build in ~40 µs), up
// to kSetupMaxReps; setup_s sums the per-subject medians. The first
// ~10 constructions of a process run up to twice as slow while the
// allocator and the kernel warm up, so the median needs well over 20.
constexpr unsigned kSetupReps = 41;
constexpr double kSetupBudgetS = 0.1;
constexpr unsigned kSetupMaxReps = 1000;
// Traced run: untraced/traced round pairs per subject.
constexpr unsigned kTraceRounds = 2;

struct Subject {
  const char* name;
  bool fifo;  // linearizable: check per-producer order too
  wcq::options opt;
};

wcq::options base_options(const Spec& spec) {
  return wcq::options{}.order(spec.order).max_threads(kMaxHandles);
}

wcq::options sharded_options(const Spec& spec) {
  return base_options(spec).shards(1u << kShardBits);
}

// Calls f.template operator()<Q>(subject) for subject i.
template <typename F>
void with_subject(unsigned i, const Spec& spec, F&& f) {
  const wcq::options opt = base_options(spec);
  switch (i) {
    case 0:
      f.template operator()<WcqQ>(Subject{"wcq", true, opt});
      break;
    case 1:
      // The library's default picker (round_robin) over 4 shards; the
      // sharded layer documents relaxed cross-shard order.
      f.template operator()<ShardedQ>(
          Subject{"sharded", false, sharded_options(spec)});
      break;
    default:
      f.template operator()<LscqQ>(Subject{"lscq", true, opt});
      break;
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
Totals g_totals;

void print_result(bool correct, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", g_totals.attempted,
              g_totals.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// A round whose workers never came back: report every stuck thread as
// a failed op and end the process without joining them.
void report_wedged(std::uint64_t stuck) {
  std::fprintf(stderr,
               "perfbench: %" PRIu64
               " worker(s) still inside a queue op after the deadline\n",
               stuck);
  g_totals.attempted += stuck;
  g_totals.failed += stuck;
  print_result(false, {});
  std::_Exit(0);
}

std::string verdict_json(const Verdict& v) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"lost\": %" PRIu64 ", \"duplicated\": %" PRIu64
                ", \"reordered\": %" PRIu64 ", \"corrupt\": %" PRIu64 "}",
                v.lost, v.duplicated, v.reordered, v.corrupt);
  return buf;
}

void add(Verdict& into, const Verdict& v) {
  into.lost += v.lost;
  into.duplicated += v.duplicated;
  into.reordered += v.reordered;
  into.corrupt += v.corrupt;
}

void count_round(const RoundResult& r) {
  g_totals.attempted += r.attempted;
  g_totals.failed += r.verdict.violations();
}

// ---- end-to-end run ----------------------------------------------------

// Construct one queue and register the workers' handles (the setup a
// user pays before the first op). Teardown is not timed.
template <typename Q>
double setup_once(const wcq::options& opt) {
  const std::uint64_t t0 = now_ns();
  auto q = std::make_unique<Q>(opt);
  std::vector<decltype(q->get_handle())> handles;
  handles.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) handles.push_back(q->get_handle());
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  handles.clear();
  return s;
}

struct SubjectAcc {
  const char* name = "";
  std::vector<double> mops;
  std::vector<double> peak_mb;
  std::vector<double> p50_ns;
  std::vector<double> p99_ns;
  std::size_t samples = 0;
  std::size_t min_round_samples = SIZE_MAX;
  std::uint64_t moved = 0;
  std::uint64_t empties = 0;
  std::uint64_t refused = 0;
  Verdict verdict;
};

int run_end_to_end(const Spec& spec, const RunParams& rp, double seconds) {
  std::vector<double> setup[kSubjects];
  double spent[kSubjects] = {};
  for (bool more = true; more;) {
    more = false;
    for (unsigned i = 0; i < kSubjects; ++i) {
      const std::size_t n = setup[i].size();
      if (n >= kSetupMaxReps ||
          (n >= kSetupReps && spent[i] >= kSetupBudgetS)) {
        continue;
      }
      more = true;
      with_subject(i, spec, [&]<typename Q>(const Subject& s) {
        setup[i].push_back(setup_once<Q>(s.opt));
        spent[i] += setup[i].back();
      });
    }
  }

  const unsigned rounds = std::max(
      3u, static_cast<unsigned>(seconds / (kSubjects * kSliceS) + 0.5));
  const double slice = seconds / (rounds * kSubjects);
  SubjectAcc acc[kSubjects];
  bool too_few = false;
  for (unsigned r = 0; r < rounds; ++r) {
    for (unsigned k = 0; k < kSubjects; ++k) {
      const unsigned i = (r + k) % kSubjects;
      with_subject(i, spec, [&]<typename Q>(const Subject& s) {
        RoundResult res =
            run_round<Q, false>(spec, s.opt, s.fifo, rp, r * kSubjects + k,
                                slice, [](Q&, RoundResult&) {});
        count_round(res);
        SubjectAcc& a = acc[i];
        a.name = s.name;
        a.mops.push_back(res.mops);
        a.peak_mb.push_back(res.peak_mb);
        // Percentiles per round (all threads' samples merged), then the
        // median over rounds: a host hiccup inside one round moves one
        // value of the median, not the run's tail.
        const auto p50 = percentile(res.samples, 50.0);
        const auto p99 = percentile(res.samples, 99.0);
        too_few = too_few || !p50 || !p99;
        a.p50_ns.push_back(p50.value_or(0));
        a.p99_ns.push_back(p99.value_or(0));
        a.samples += res.samples.size();
        a.min_round_samples = std::min(a.min_round_samples, res.samples.size());
        a.moved += res.moved;
        a.empties += res.empties;
        a.refused += res.refused;
        add(a.verdict, res.verdict);
      });
    }
  }
  if (too_few) {
    std::fprintf(stderr,
                 "perfbench: a round had too few latency samples for p99 "
                 "(need %zu beyond it)\n",
                 kMinTail);
    return 3;
  }

  std::vector<Metric> m;
  double setup_s = 0.0;
  for (auto& v : setup) setup_s += median(v);
  m.push_back({"setup_s", setup_s, "s"});
  std::string detail = "{\"detail\": {\"workload\": \"" +
                       std::string(spec.name) + "\", \"rounds\": " +
                       std::to_string(rounds) + ", \"subjects\": {";
  for (unsigned i = 0; i < kSubjects; ++i) {
    const SubjectAcc& a = acc[i];
    const std::string n = a.name;
    m.push_back({n + ".mops", median(a.mops), "Mop/s"});
    m.push_back({n + ".p50_ns", median(a.p50_ns), "ns"});
    m.push_back({n + ".p99_ns", median(a.p99_ns), "ns"});
    m.push_back({n + ".peak_mb", median(a.peak_mb), "MB"});
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"latency_samples\": %zu, "
                  "\"min_round_samples\": %zu, \"moved\": %" PRIu64
                  ", \"empty_pops\": %" PRIu64 ", \"refused_pushes\": %" PRIu64
                  ", \"setup_median_s\": %.9g, \"violations\": %s, "
                  "\"round_mops\": [",
                  i ? ", " : "", a.name, a.samples, a.min_round_samples,
                  a.moved, a.empties, a.refused, median(setup[i]),
                  verdict_json(a.verdict).c_str());
    detail += buf;
    for (std::size_t r = 0; r < a.mops.size(); ++r) {
      std::snprintf(buf, sizeof buf, "%s%.4f", r ? ", " : "", a.mops[r]);
      detail += buf;
    }
    detail += "]}";
  }
  std::printf("%s}}}\n", detail.c_str());
  print_result(g_totals.failed == 0, m);
  return 0;
}

// ---- traced run ----------------------------------------------------------

// Replays a raw backend (uint64 slots, try_pop into a pointer).
template <typename B>
std::uint64_t replay_backend(SpanLog& log, B& b, const std::vector<bool>& s,
                             double budget) {
  auto h = b.get_handle();
  FifoExpect e;
  return replay(
      log, s, budget, [&] { return b.try_push(e.next_push(), h); },
      [&] {
        std::uint64_t v = 0;
        return b.try_pop(&v, h) ? e.check(v) : -1;
      });
}

// Replays a typed queue (wcq::queue or wcq::sharded).
template <typename Q>
std::uint64_t replay_queue(SpanLog& log, Q& q, const std::vector<bool>& s,
                           double budget) {
  auto h = q.get_handle();
  FifoExpect e;
  return replay(
      log, s, budget, [&] { return q.try_push(e.next_push(), h); },
      [&] {
        const auto v = q.try_pop(h);
        return v ? e.check(*v) : -1;
      });
}

template <typename R>
std::uint64_t replay_ring(SpanLog& log, R& ring, const std::vector<bool>& s,
                          double budget) {
  FifoExpect e(ring.capacity() - 1);
  return replay(
      log, s, budget,
      [&] { return ring.enqueue_idx(e.next_push(), R::kUnbounded) == R::kOk; },
      [&] {
        std::uint64_t i = 0;
        return ring.dequeue_idx(&i, R::kUnbounded) == R::kOk ? e.check(i) : -1;
      });
}

// wCQ's slow path, single-threaded through the WcqTestAccess levers: a
// whole slow push, a whole slow pop, and one helper call that completes
// a peer's published push.
std::uint64_t replay_slow_path(SpanLog& slow_push, SpanLog& slow_pop,
                               SpanLog& help, const wcq::options& opt,
                               double budget) {
  using Access = wcq::WcqTestAccess<false>;
  wcq::WcqQueue q(opt);
  auto owner = q.get_handle();
  auto helper = q.get_handle();
  std::uint64_t bad = 0;
  std::uint64_t next = 0;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  while (now_ns() < end) {
    std::uint64_t t0 = now_ns();
    bool ok = Access::publish_stalled_push(q, owner, next) &&
              Access::finish_push(q, owner);
    slow_push.add(kPush, t0, now_ns());
    std::uint64_t out = ~std::uint64_t{0};
    t0 = now_ns();
    Access::publish_stalled_pop(q, owner);
    ok = Access::finish_pop(q, owner, &out) && ok;
    slow_pop.add(kPop, t0, now_ns());
    bad += ok && out == next ? 0 : 1;
    ++next;

    ok = Access::publish_stalled_push(q, owner, next);
    t0 = now_ns();
    ok = Access::help(q, owner) && ok;  // as a peer's maybe_help would
    help.add(kPush, t0, now_ns());
    ok = Access::done_ok(q, owner) && Access::finish_push(q, owner) && ok;
    ok = q.try_pop(&out, helper) && ok;
    bad += ok && out == next ? 0 : 1;
    ++next;
  }
  return bad;
}

constexpr unsigned kProtectBatch = 64;

void replay_smr(SpanLog& protect, SpanLog& retire, double budget) {
  struct Node {
    std::uint64_t payload[8] = {};
  };
  wcq::smr::Domain d(kMaxHandles);
  std::atomic<Node*> src{new Node};
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  while (now_ns() < end) {
    // protect costs a few ns, under the clock's resolution: one span
    // covers kProtectBatch calls and counts as that many.
    std::uint64_t t0 = now_ns();
    for (unsigned i = 0; i < kProtectBatch; ++i) d.protect(0, 0, src);
    protect.add(kPush, t0, now_ns());
    Node* old = src.exchange(new Node);
    d.clear_hazard(0, 0);
    t0 = now_ns();
    d.retire(
        0, old, [](void* n, void*) { delete static_cast<Node*>(n); },
        nullptr);
    retire.add(kPush, t0, now_ns());
  }
  delete src.load();
}

template <typename Q>
double ctor_ms(const wcq::options& opt) {
  std::vector<double> ms;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    auto q = std::make_unique<Q>(opt);
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

void write_trace(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 const std::vector<std::pair<std::string, std::vector<Span>>>&
                     mt_spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  static const char* const kKinds[] = {"push", "refused", "pop", "empty"};
  std::fprintf(f, "layer,kind,start_ns,dur_ns\n");
  auto dump = [&](const std::string& layer, const std::vector<Span>& spans) {
    for (const Span& s : spans) {
      std::fprintf(f, "%s,%s,%" PRIu64 ",%u\n", layer.c_str(),
                   kKinds[s.kind], s.start_ns, s.dur_ns);
    }
  };
  for (const auto& [layer, spans] : mt_spans) dump(layer, spans);
  for (const SpanLog* log : logs) dump(log->layer(), log->spans());
  std::fclose(f);
}

double per_1k(double count, double ops) {
  return ops > 0 ? count * 1000.0 / ops : 0.0;
}

int run_traced(const Spec& spec, const RunParams& rp, double seconds,
               const std::string& trace_out) {
  std::vector<Metric> m;
  auto put = [&](const std::string& n, double v, const char* unit) {
    m.push_back({n, v, unit});
  };

  // Closed-loop rounds: the queues' own counters, and each subject's
  // throughput untraced vs traced (every op a span).
  const double mt_budget = seconds / 2;
  const double slice = mt_budget / (kTraceRounds * kSubjects * 2);
  std::vector<double> traced_ratio;
  std::vector<std::pair<std::string, std::vector<Span>>> mt_spans;
  wcq::WcqStats wst;
  std::uint64_t wcq_pops = 0, wcq_empties = 0;
  double lscq_ops = 0, lscq_allocs = 0, lscq_reclaimed = 0, lscq_scans = 0;
  for (unsigned r = 0; r < kTraceRounds; ++r) {
    for (unsigned i = 0; i < kSubjects; ++i) {
      with_subject(i, spec, [&]<typename Q>(const Subject& s) {
        auto inspect = [&](Q& q, RoundResult& res) {
          if constexpr (std::is_same_v<Q, WcqQ>) {
            const wcq::WcqStats st = q.stats();
            wst.fast_enqueues += st.fast_enqueues;
            wst.fast_dequeues += st.fast_dequeues;
            wst.slow_enqueues += st.slow_enqueues;
            wst.slow_dequeues += st.slow_dequeues;
            wst.helps += st.helps;
            wcq_pops += res.pops;
            wcq_empties += res.empties;
          } else if constexpr (std::is_same_v<Q, LscqQ>) {
            const wcq::smr::Stats st = q.smr_stats();
            lscq_ops += static_cast<double>(res.attempted);
            lscq_allocs += static_cast<double>(res.allocs);
            lscq_reclaimed += static_cast<double>(st.reclaimed_nodes);
            lscq_scans += static_cast<double>(st.scans);
          }
        };
        double plain = 0, traced = 0;
        for (unsigned k = 0; k < 2; ++k) {
          const std::uint64_t round = (r * kSubjects + i) * 2 + k;
          // Alternate which mode goes first from round to round.
          if ((k + r) % 2 == 0) {
            RoundResult res = run_round<Q, false>(spec, s.opt, s.fifo, rp,
                                                  round, slice, inspect);
            count_round(res);
            plain = res.mops;
          } else {
            RoundResult res = run_round<Q, true>(spec, s.opt, s.fifo, rp,
                                                 round, slice, inspect);
            count_round(res);
            traced = res.mops;
            for (std::size_t t = 0; t < res.spans.size(); ++t) {
              mt_spans.emplace_back(std::string("closed_loop.") + s.name +
                                        ".t" + std::to_string(t),
                                    std::move(res.spans[t]));
            }
          }
        }
        traced_ratio.push_back(traced / plain);
      });
    }
  }

  // Single-threaded replays of thread 0's schedule, one layer at a time.
  const double overhead = clock_overhead_ns();
  const std::vector<bool> sched = schedule(spec, rp.seed, 4096);
  const wcq::options opt = base_options(spec);
  const wcq::options sharded_opt = sharded_options(spec);
  constexpr unsigned kReplays = 10;
  const double budget = (seconds - mt_budget) / kReplays;

  SpanLog ring_plain("ring.plain", overhead);
  SpanLog ring_noted("ring.noted", overhead);
  SpanLog backend("wcq_backend", overhead);
  SpanLog scq("scq", overhead);
  SpanLog facade("facade", overhead);
  SpanLog sharded("sharded", overhead);
  SpanLog shard_backend("sharded.shard_backend", overhead);
  SpanLog lscq("lscq", overhead);
  SpanLog smr_protect("smr.protect", overhead);
  SpanLog smr_retire("smr.retire", overhead);
  SpanLog slow_push("noted.slow_push", overhead);
  SpanLog slow_pop("noted.slow_pop", overhead);
  SpanLog help("noted.help", overhead);
  SpanLog handle("handle.get", overhead);
  std::uint64_t bad = 0;
  {
    wcq::ScqRing ring(spec.order, opt.remap(), false);
    bad += replay_ring(ring_plain, ring, sched, budget);
  }
  {
    wcq::RingRequest req;
    wcq::WcqRing ring(spec.order, opt.remap(), false, &req, /*is_fq=*/true);
    bad += replay_ring(ring_noted, ring, sched, budget);
  }
  {
    wcq::WcqQueue q(opt);
    bad += replay_backend(backend, q, sched, budget);
  }
  {
    wcq::ScqQueue q(opt);
    bad += replay_backend(scq, q, sched, budget);
  }
  {
    WcqQ q(opt);
    bad += replay_queue(facade, q, sched, budget);
  }
  {
    ShardedQ q(sharded_opt);
    bad += replay_queue(sharded, q, sched, budget);
  }
  {
    // One shard on its own: the same backend at the per-shard order,
    // fed the quarter of each burst a round-robin shard receives.
    wcq::WcqQueue q(wcq::options(opt).order(spec.order - kShardBits));
    bad += replay_backend(shard_backend, q,
                          schedule(spec, rp.seed, 4096, 1 << kShardBits),
                          budget);
  }
  {
    LscqQ q(opt);
    bad += replay_queue(lscq, q, sched, budget);
  }
  replay_smr(smr_protect, smr_retire, budget);
  bad += replay_slow_path(slow_push, slow_pop, help, opt, budget);
  {
    WcqQ q(opt);
    for (unsigned rep = 0; rep < 4096; ++rep) {
      const std::uint64_t t0 = now_ns();
      auto h = q.get_handle();
      handle.add(kPush, t0, now_ns());
    }
  }
  const std::vector<const SpanLog*> logs = {
      &ring_plain, &ring_noted, &backend,  &scq,        &facade,
      &sharded,    &shard_backend, &lscq,  &smr_protect, &smr_retire,
      &slow_push,  &slow_pop,   &help,     &handle};
  for (const SpanLog* log : logs) g_totals.attempted += log->total();
  g_totals.failed += bad;

  for (SpanLog* ring : {&ring_noted, &ring_plain}) {
    put(ring->layer() + ".enq_ns", ring->cost_ns(kPush), "ns");
    put(ring->layer() + ".deq_ns", ring->cost_ns(kPop), "ns");
    put(ring->layer() + ".empty_deq_ns", ring->cost_ns(kEmpty), "ns");
  }
  const double pops = static_cast<double>(wcq_pops);
  put("ring.empty_ratio", pops > 0 ? wcq_empties / pops : 0.0, "ratio");

  put("wcq_backend.push_ns", backend.cost_ns(kPush), "ns");
  put("wcq_backend.pop_ns", backend.cost_ns(kPop), "ns");
  put("wcq_backend.empty_pop_ns", backend.cost_ns(kEmpty), "ns");
  put("scq.push_ns", scq.cost_ns(kPush), "ns");
  put("scq.pop_ns", scq.cost_ns(kPop), "ns");
  const double fast =
      static_cast<double>(wst.fast_enqueues + wst.fast_dequeues);
  const double slow =
      static_cast<double>(wst.slow_enqueues + wst.slow_dequeues);
  put("wcq.fast_ratio", fast + slow > 0 ? fast / (fast + slow) : 0.0, "ratio");

  put("noted.slow_push_ns", slow_push.cost_ns(kPush), "ns");
  put("noted.slow_pop_ns", slow_pop.cost_ns(kPop), "ns");
  put("noted.help_ns", help.cost_ns(kPush), "ns");
  put("wcq.slow_per_1k", per_1k(slow, fast + slow), "per_1k_ops");
  put("wcq.helps_per_1k", per_1k(static_cast<double>(wst.helps), fast + slow),
      "per_1k_ops");

  put("facade.push_ns", facade.cost_ns(kPush), "ns");
  put("facade.pop_ns", facade.cost_ns(kPop), "ns");

  const double sh_push = sharded.cost_ns(kPush);
  const double sh_pop = sharded.cost_ns(kPop);
  put("sharded.push_ns", sh_push, "ns");
  put("sharded.pop_ns", sh_pop, "ns");
  put("sharded.empty_pop_ns", sharded.cost_ns(kEmpty), "ns");
  // The picker is private to sharded.hpp; its cost is what a sharded op
  // adds over the same op on one shard.
  put("sharded.picker_ns",
      ((sh_push - shard_backend.cost_ns(kPush)) +
       (sh_pop - shard_backend.cost_ns(kPop))) /
          2,
      "ns");

  put("smr.protect_ns", smr_protect.cost_ns(kPush) / kProtectBatch, "ns");
  put("smr.retire_ns", smr_retire.cost_ns(kPush), "ns");
  put("lscq.push_ns", lscq.cost_ns(kPush), "ns");
  put("lscq.pop_ns", lscq.cost_ns(kPop), "ns");
  put("lscq.allocs_per_1k", per_1k(lscq_allocs, lscq_ops), "per_1k_ops");
  put("lscq.reclaimed_per_1k", per_1k(lscq_reclaimed, lscq_ops), "per_1k_ops");
  put("lscq.scans_per_1k", per_1k(lscq_scans, lscq_ops), "per_1k_ops");

  put("handle.get_ns", handle.cost_ns(kPush), "ns");
  put("ctor.wcq_ms", ctor_ms<WcqQ>(opt), "ms");
  put("ctor.sharded_ms", ctor_ms<ShardedQ>(sharded_opt), "ms");
  put("ctor.lscq_ms", ctor_ms<LscqQ>(opt), "ms");

  put("trace.overhead_pct", (1.0 - median(traced_ratio)) * 100.0, "%");

  write_trace(trace_out, logs, mt_spans);
  std::printf("{\"detail\": {\"workload\": \"%s\", \"clock_overhead_ns\": "
              "%.1f, \"replay_violations\": %" PRIu64
              ", \"trace_file\": \"%s\"}}\n",
              std::string(spec.name).c_str(), overhead, bad,
              trace_out.c_str());
  print_result(g_totals.failed == 0, m);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <pairwise|poll|burst> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       perfbench --about\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Spec> spec;
  std::optional<std::uint64_t> seed;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--about") {
      std::printf("{\"compiler\": \"%s\", \"flags\": \"%s\", "
                  "\"build_type\": \"%s\"}\n",
                  __VERSION__, PERFBENCH_FLAGS, PERFBENCH_BUILD_TYPE);
      return 0;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      spec = spec_for(v);
      if (!spec) return usage();
    } else if (a == "--seed") {
      seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--seconds") {
      seconds = std::strtod(v, &end);
      if (*end != '\0' || !(seconds > 0 && seconds <= 600)) return usage();
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return usage();
      trace = v[0] - '0';
    } else if (a == "--trace-out") {
      trace_out = v;
    } else {
      return usage();
    }
  }
  if (!spec || !seed || seconds <= 0 || trace < 0) return usage();

  on_wedged = report_wedged;
  const RunParams rp{*seed, payload_key(*seed)};
  return trace ? run_traced(*spec, rp, seconds, trace_out)
               : run_end_to_end(*spec, rp, seconds);
}
