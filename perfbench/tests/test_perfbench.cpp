// Tests of the benchmark's own machinery: the history checker must
// flag an injected loss, duplicate, reorder and foreign value, and a
// percentile must only be reported with at least kMinTail samples
// beyond it.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "checker.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

constexpr std::uint64_t kKey = 0xabcd000000000000ull;

std::uint64_t val(unsigned producer, std::uint64_t seq) {
  return tag(producer, seq) ^ kKey;
}

// Two producers pushed 6 values each; two consumers split them in
// per-producer order. `edit` injects a fault into the consumer feeds.
template <typename Edit>
Verdict run_history(bool fifo, Edit&& edit) {
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t s = 0; s < 6; ++s) {
    (s % 2 ? b : a).push_back(val(0, s));
    (s % 3 ? a : b).push_back(val(1, s));
  }
  edit(a, b);
  ConsumerLog ca(2, kKey, fifo), cb(2, kKey, fifo);
  for (std::uint64_t v : a) ca.observe(v);
  for (std::uint64_t v : b) cb.observe(v);
  return check({6, 6}, {&ca, &cb});
}

void test_checker() {
  using V = std::vector<std::uint64_t>;
  const Verdict clean = run_history(true, [](V&, V&) {});
  CHECK(clean.violations() == 0);

  const Verdict loss = run_history(true, [](V& a, V&) { a.pop_back(); });
  CHECK(loss.lost == 1 && loss.violations() == 1);

  const Verdict dup =
      run_history(true, [](V& a, V& b) { b.push_back(a.front()); });
  CHECK(dup.duplicated == 1);

  // Consumer a sees producer 0's seq 2 before seq 0.
  auto swap_first_two_of_p0 = [](V& a, V&) {
    std::size_t first = a.size(), second = a.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (((a[i] ^ kKey) >> kSeqBits) != 1) continue;
      if (first == a.size()) {
        first = i;
      } else {
        second = i;
        break;
      }
    }
    std::swap(a[first], a[second]);
  };
  const Verdict reorder = run_history(true, swap_first_two_of_p0);
  CHECK(reorder.reordered == 1 && reorder.lost == 0 &&
        reorder.duplicated == 0);
  // The sharded subject documents relaxed order: counted, not flagged.
  CHECK(run_history(false, swap_first_two_of_p0).violations() == 0);

  // A loss and a duplicate of the same producer leave the count right;
  // the multiset hash still catches them.
  const Verdict swapped = run_history(false, [](V& a, V&) {
    for (std::uint64_t& v : a) {
      if (v == val(0, 4)) v = val(0, 0);
    }
  });
  CHECK(swapped.lost == 1 && swapped.duplicated == 1);

  const Verdict foreign =
      run_history(true, [](V& a, V&) { a.push_back(val(7, 0)); });
  CHECK(foreign.corrupt == 1);
}

void test_percentile() {
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 1; i <= 1000; ++i) v.push_back(1001 - i);
  const auto p99 = percentile(v, 99.0);
  CHECK(p99 && *p99 == 990.0);  // exactly 10 samples beyond rank 990
  v.pop_back();
  CHECK(!percentile(v, 99.0));  // 999 samples: only 9 beyond

  std::vector<std::uint32_t> small(20, 5);
  CHECK(percentile(small, 50.0) && *percentile(small, 50.0) == 5.0);
  small.pop_back();
  CHECK(!percentile(small, 50.0));
  std::vector<std::uint32_t> none;
  CHECK(!percentile(none, 50.0));
}

void test_schedules() {
  for (const char* name : {"pairwise", "poll", "burst"}) {
    const Spec spec = *spec_for(name);
    const auto s = schedule(spec, 42, 5000);
    long depth = 0;
    long pushes = 0;
    for (const bool push : s) {
      depth += push ? 1 : -1;
      pushes += push ? 1 : 0;
      // A lone thread never pops below empty except poll's second pop,
      // and never holds more than an order-10 ring.
      CHECK(depth >= (spec.kind == Kind::poll ? -1 : 0));
      if (spec.kind == Kind::poll && depth < 0) depth = 0;
      CHECK(depth <= 1024);
    }
    CHECK(pushes > 0);
    CHECK(s == schedule(spec, 42, 5000));
  }
  const Spec burst = *spec_for("burst");
  CHECK(schedule(burst, 1, 5000) != schedule(burst, 2, 5000));
  CHECK(payload_key(1) != payload_key(2));
}

}  // namespace

int main() {
  test_checker();
  test_percentile();
  test_schedules();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench tests passed\n");
  return 0;
}
