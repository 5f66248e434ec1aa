// Unit checks for the measurement harness itself: RNG distribution
// sanity, the counting allocator, repeat_measure running setup/body
// the advertised number of times on workers pinned inside the CPU
// mask they inherit, and bench_figures' command line and JSON lines.
#include <cctype>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mem_stats.hpp"
#include "common/rng.hpp"
#include "harness/bench_io.hpp"
#include "harness/driver.hpp"
#include "queue_test_common.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace {

using namespace wcq;

void test_rng() {
  Xoshiro256 rng(42);
  std::uint64_t heads = 0;
  const std::uint64_t n = 100000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (rng.chance_pct(50)) ++heads;
    const std::uint64_t b = rng.next_below(17);
    WCQ_CHECK(b < 17, "next_below out of range: %llu",
              (unsigned long long)b);
  }
  // 50% coin over 100k flips: allow +-2% (way beyond 6 sigma).
  WCQ_CHECK(heads > n / 2 - n / 50 && heads < n / 2 + n / 50,
            "biased coin: %llu/%llu", (unsigned long long)heads,
            (unsigned long long)n);
  // Distinct seeds must diverge.
  Xoshiro256 a(1), b2(2);
  WCQ_CHECK(a.next() != b2.next(), "seeds 1 and 2 collide");
  std::printf("  ok rng\n");
}

void test_mem_counter() {
  mem::reset();
  void* p = mem::alloc(1000);
  WCQ_CHECK(mem::stats().live_bytes == 1000, "live after alloc");
  void* q = mem::alloc(500);
  WCQ_CHECK(mem::stats().peak_bytes == 1500, "peak after two allocs");
  mem::free(p, 1000);
  WCQ_CHECK(mem::stats().live_bytes == 500, "live after free");
  WCQ_CHECK(mem::stats().peak_bytes == 1500, "peak is sticky");
  mem::free(q, 500);
  mem::reset();
  WCQ_CHECK(mem::stats().peak_bytes == 0, "reset clears peak");
  std::printf("  ok mem_counter\n");
}

void test_repeat_measure() {
  std::atomic<unsigned> setups{0};
  std::atomic<unsigned> bodies{0};
  const auto res = harness::repeat_measure(
      3, 2, 1000, [&] { setups.fetch_add(1); },
      [&](unsigned worker, harness::LatencyHistogram&) {
        WCQ_CHECK(worker < 2, "worker id out of range");
        bodies.fetch_add(1);
      });
  WCQ_CHECK(setups.load() == 3, "setup ran %u times", setups.load());
  WCQ_CHECK(bodies.load() == 6, "body ran %u times", bodies.load());
  WCQ_CHECK(res.median_mops > 0.0, "throughput not positive");
  WCQ_CHECK(res.min_mops <= res.median_mops && res.median_mops <= res.max_mops,
            "median %f outside its band [%f, %f]", res.median_mops,
            res.min_mops, res.max_mops);
  std::printf("  ok repeat_measure\n");
}

// Narrow this thread to its last allowed CPU: every worker, which
// inherits that mask, must be pinned inside it, not to CPU w.
void test_pin_stays_in_mask() {
#if defined(__linux__)
  cpu_set_t saved;
  WCQ_CHECK(pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0,
            "getaffinity failed");
  int only = CPU_SETSIZE - 1;
  while (only > 0 && !CPU_ISSET(only, &saved)) --only;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(only, &one);
  WCQ_CHECK(pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0,
            "cannot narrow to cpu %d", only);
  std::atomic<unsigned> outside{0};
  auto body = [&](unsigned, harness::LatencyHistogram&) {
    cpu_set_t now;
    if (pthread_getaffinity_np(pthread_self(), sizeof(now), &now) != 0 ||
        CPU_COUNT(&now) != 1 || !CPU_ISSET(only, &now)) {
      outside.fetch_add(1);
    }
  };
  harness::repeat_measure(1, 3, 3, [] {}, body);
  pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
  WCQ_CHECK(outside.load() == 0, "%u of 3 workers pinned outside cpu %d",
            outside.load(), only);
#endif
  std::printf("  ok pin_stays_in_mask\n");
}

// A JSON syntax check, just enough to tell a well-formed line from a
// broken one: one value, then nothing but whitespace.
class JsonSyntax {
 public:
  static bool valid(std::string_view s) {
    JsonSyntax p{s};
    if (!p.value()) return false;
    p.ws();
    return p.i_ == s.size();
  }

 private:
  explicit JsonSyntax(std::string_view s) : s_(s) {}
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool eat(char c) {
    ws();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  bool digits() {
    const std::size_t from = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > from;
  }
  bool string() {
    if (!eat('"')) return false;
    while (i_ < s_.size()) {
      const auto c = static_cast<unsigned char>(s_[i_++]);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\' || i_ >= s_.size()) continue;
      const char e = s_[i_++];
      if (e == 'u') {
        for (int k = 0; k < 4; ++k, ++i_) {
          if (i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(e) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool number() {
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (!digits()) return false;
    if (i_ < s_.size() && s_[i_] == '.' && (++i_, !digits())) return false;
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      return digits();
    }
    return true;
  }
  template <typename Item>
  bool list(char close, Item item) {
    if (eat(close)) return true;
    do {
      if (!item()) return false;
    } while (eat(','));
    return eat(close);
  }
  bool value() {
    ws();
    if (i_ >= s_.size()) return false;
    const std::string_view rest = s_.substr(i_);
    for (const std::string_view word : {"true", "false", "null"}) {
      if (rest.starts_with(word)) {
        i_ += word.size();
        return true;
      }
    }
    if (eat('{')) {
      return list('}', [&] { return string() && eat(':') && value(); });
    }
    if (eat('[')) return list(']', [&] { return value(); });
    if (s_[i_] == '"') return string();
    return number();
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

void test_json_line() {
  // The checker itself must tell broken lines apart.
  for (const char* bad :
       {"", "{", "{\"a\": nan}", "{\"a\" 1}", "{\"a\": 1,}",
        "{\"a\": \"\x01\"}", "{\"a\": 1} x", "{\"a\": 01x}"}) {
    WCQ_CHECK(!JsonSyntax::valid(bad), "checker accepted %s", bad);
  }
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const std::string line = harness::JsonLine{}
                               .str("s", "q\"b\\s\nt\x01")
                               .num("u", std::uint64_t{18446744073709551615u})
                               .num("d", 2.5)
                               .num("nan", kNan)
                               .maybe("none", std::optional<std::string>{})
                               .text();
  WCQ_CHECK(line == "{\"s\": \"q\\\"b\\\\s\\u000at\\u0001\", "
                    "\"u\": 18446744073709551615, \"d\": 2.5, "
                    "\"nan\": null, \"none\": null}",
            "line %s", line.c_str());
  WCQ_CHECK(JsonSyntax::valid(line), "unparsable %s", line.c_str());
  WCQ_CHECK(harness::JsonLine{}.text() == "{}", "empty object");
  std::printf("  ok json_line\n");
}

void test_host_line() {
  const std::string host = harness::host_line();
  WCQ_CHECK(JsonSyntax::valid(host), "unparsable %s", host.c_str());
  WCQ_CHECK(host.starts_with("{\"host\": {\"cpu_model\": "), "%s",
            host.c_str());
  std::size_t at = 0;
  for (const char* key :
       {"\"cpu_model\": ", "\"nproc\": ", "\"cpus_allowed\": ",
        "\"kernel\": ", "\"compiler\": ", "\"flags\": ",
        "\"build_type\": ", "\"git_sha\": "}) {
    at = host.find(key, at);
    WCQ_CHECK(at != std::string::npos, "key %s missing or out of order: %s",
              key, host.c_str());
  }
  std::printf("  ok host_line\n");
}

std::optional<harness::BenchArgs> parse(std::vector<const char*> argv,
                                        std::string& error) {
  argv.insert(argv.begin(), "bench_figures");
  return harness::parse_args(static_cast<int>(argv.size()), argv.data(),
                             error);
}

void test_parse_args() {
  std::string error;
  auto a = parse({"fig11b"}, error);
  WCQ_CHECK(a && a->figure == "fig11b" && a->runs == 3 &&
                a->ops == 1'000'000 && a->threads.size() == 4,
            "defaults: %s", error.c_str());
  a = parse({"all", "--threads", "1,2,144", "--ops", "20000", "--runs", "2"},
            error);
  WCQ_CHECK(a && a->figure == "all" && a->ops == 20000 && a->runs == 2 &&
                a->threads == std::vector<unsigned>({1, 2, 144}),
            "full line: %s", error.c_str());
  a = parse({"--runs", "1", "sharded", "--threads", "256", "--ops", "256"},
            error);
  WCQ_CHECK(a && a->figure == "sharded", "flags first: %s", error.c_str());
  const std::vector<std::vector<const char*>> rejected = {
      {},
      {"fig13"},
      {"fig11b", "fig11c"},
      {"fig11b", "--csv"},
      {"fig11b", "--threads"},
      {"fig11b", "--threads", "0"},
      {"fig11b", "--threads", "257"},
      {"fig11b", "--threads", "4294967297"},
      {"fig11b", "--threads", "1,,2"},
      {"fig11b", "--threads", "1,2,"},
      {"fig11b", "--threads", ""},
      {"fig11b", "--threads", "+2"},
      {"fig11b", "--threads", "2x"},
      {"fig11b", "--runs", "0"},
      {"fig11b", "--runs", "4294967296"},
      {"fig11b", "--ops", "-1"},
      {"fig11b", "--ops", "18446744073709551616"},
      {"fig11b", "--ops", "3", "--threads", "1,4"},
  };
  for (const auto& argv : rejected) {
    error.clear();
    WCQ_CHECK(!parse(argv, error), "accepted argv #%zu",
              static_cast<std::size_t>(&argv - rejected.data()));
    WCQ_CHECK(!error.empty(), "rejection #%zu without a message",
              static_cast<std::size_t>(&argv - rejected.data()));
  }
  std::printf("  ok parse_args\n");
}

}  // namespace

int main() {
  test_rng();
  test_mem_counter();
  test_repeat_measure();
  test_pin_stays_in_mask();
  test_json_line();
  test_host_line();
  test_parse_args();
  return 0;
}
