// bench_figures' command line and its JSON-lines output.
//
//   bench_figures <figure|all> [--threads 1,2,4] [--ops N] [--runs R]
//
// parse_args() checks every value and names what it rejects, so a bad
// sweep fails before any thread starts. The output is one JSON object
// per line: host_line() first, with the keys of perfbench's host
// fingerprint (unknown values are null), then one JsonLine per
// measured point.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#include <sys/utsname.h>
#endif

namespace wcq::harness {

// The figures `all` runs, in order.
inline constexpr std::string_view kFigures[] = {
    "fig10",    "fig11a",     "fig11b", "fig11c",     "fig12",
    "patience", "help_delay", "remap",  "ring_order", "sharded"};

// The paper's largest machine has 144 threads; a larger count is a
// typo, not an experiment.
inline constexpr unsigned kMaxBenchThreads = 256;

struct BenchArgs {
  std::string figure;  // one of kFigures, or "all"
  std::vector<unsigned> threads{1, 2, 4, 8};
  std::uint64_t ops = 1'000'000;  // per point and run, split over threads
  unsigned runs = 3;
};

inline std::string bench_usage() {
  std::string u = "usage: bench_figures <";
  for (const std::string_view f : kFigures) {
    u += f;
    u += '|';
  }
  return u + "all> [--threads 1,2,4] [--ops N] [--runs R]";
}

// A whole decimal string that fits in uint64_t.
inline std::optional<std::uint64_t> parse_count(std::string_view s) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || p != end) return std::nullopt;
  return v;
}

// Parses argv; on a rejected argument returns nullopt and sets `error`.
inline std::optional<BenchArgs> parse_args(int argc, const char* const* argv,
                                           std::string& error) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      if (!out.figure.empty()) {
        error = "more than one figure: " + std::string(arg);
        return std::nullopt;
      }
      out.figure = arg;
      continue;
    }
    if (i + 1 >= argc) {
      error = std::string(arg) + " needs a value";
      return std::nullopt;
    }
    const std::string_view val = argv[++i];
    if (arg == "--threads") {
      out.threads.clear();
      std::string_view rest = val;
      for (;;) {
        const std::size_t comma = rest.find(',');
        const auto n = parse_count(rest.substr(0, comma));
        if (!n || *n == 0 || *n > kMaxBenchThreads) {
          error = "--threads wants counts in 1.." +
                  std::to_string(kMaxBenchThreads) + ", got '" +
                  std::string(val) + "'";
          return std::nullopt;
        }
        out.threads.push_back(static_cast<unsigned>(*n));
        if (comma == std::string_view::npos) break;
        rest.remove_prefix(comma + 1);
      }
    } else if (arg == "--ops") {
      const auto n = parse_count(val);
      if (!n) {
        error = "--ops wants a count, got '" + std::string(val) + "'";
        return std::nullopt;
      }
      out.ops = *n;
    } else if (arg == "--runs") {
      const auto n = parse_count(val);
      if (!n || *n == 0 || *n > 0xffffffffu) {
        error = "--runs wants a count >= 1, got '" + std::string(val) + "'";
        return std::nullopt;
      }
      out.runs = static_cast<unsigned>(*n);
    } else {
      error = "unknown option " + std::string(arg);
      return std::nullopt;
    }
  }
  bool known = out.figure == "all";
  for (const std::string_view f : kFigures) known = known || out.figure == f;
  if (!known) {
    error = out.figure.empty() ? "no figure given"
                               : "unknown figure '" + out.figure + "'";
    return std::nullopt;
  }
  const unsigned widest =
      *std::max_element(out.threads.begin(), out.threads.end());
  if (out.ops < widest) {
    error = "--ops " + std::to_string(out.ops) + " is fewer than the " +
            std::to_string(widest) + " threads of the sweep";
    return std::nullopt;
  }
  return out;
}

// One JSON object, built key by key: `{"k": v, ...}` with the
// separators Python's json.dumps uses.
class JsonLine {
 public:
  JsonLine& str(std::string_view key, std::string_view v) {
    add_key(key);
    add_string(v);
    return *this;
  }
  // NaN and infinities are not JSON numbers; they print as null.
  JsonLine& num(std::string_view key, double v) {
    if (!std::isfinite(v)) return null(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    add_key(key);
    body_ += buf;
    return *this;
  }
  template <std::integral I>
  JsonLine& num(std::string_view key, I v) {
    add_key(key);
    body_ += std::to_string(v);
    return *this;
  }
  // A string or integer that may be unknown: null when it is.
  template <typename T>
  JsonLine& maybe(std::string_view key, const std::optional<T>& v) {
    if (!v) return null(key);
    if constexpr (std::integral<T>) {
      return num(key, *v);
    } else {
      return str(key, *v);
    }
  }
  JsonLine& obj(std::string_view key, const JsonLine& inner) {
    add_key(key);
    body_ += inner.text();
    return *this;
  }
  JsonLine& null(std::string_view key) {
    add_key(key);
    body_ += "null";
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add_key(std::string_view key) {
    if (!body_.empty()) body_ += ", ";
    add_string(key);
    body_ += ": ";
  }
  void add_string(std::string_view s) {
    body_ += '"';
    for (const char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        body_ += '\\';
        body_ += c;
      } else if (u < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", u);
        body_ += esc;
      } else {
        body_ += c;
      }
    }
    body_ += '"';
  }

  std::string body_;
};

namespace detail_host {

inline std::optional<std::string> cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (!line.starts_with("model name")) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t from = line.find_first_not_of(" \t", colon + 1);
    return from == std::string::npos ? std::string() : line.substr(from);
  }
  return std::nullopt;
}

inline std::optional<unsigned> cpus_allowed() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::nullopt;
}

inline std::optional<std::string> kernel() {
#if defined(__linux__)
  utsname u;
  if (uname(&u) == 0) return std::string(u.release);
#endif
  return std::nullopt;
}

// HEAD of the checkout the binary was built from, read when it runs,
// so a rebuilt tree never reports a stale commit.
inline std::optional<std::string> git_sha() {
#if defined(WCQ_SOURCE_DIR) && defined(__linux__)
  const std::string cmd =
      "git -C '" WCQ_SOURCE_DIR "' rev-parse HEAD 2>/dev/null";
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return std::nullopt;
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
  const bool ok = pclose(p) == 0 && got;
  std::string sha(buf);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (ok && sha.size() == 40 &&
      sha.find_first_not_of("0123456789abcdef") == std::string::npos) {
    return sha;
  }
#endif
  return std::nullopt;
}

}  // namespace detail_host

// `{"host": {...}}` with perfbench's fingerprint keys, in its order.
inline std::string host_line() {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::optional<std::string> flags, build_type;
#if defined(WCQ_BENCH_FLAGS)
  flags = WCQ_BENCH_FLAGS;
#endif
#if defined(WCQ_BENCH_BUILD_TYPE)
  build_type = WCQ_BENCH_BUILD_TYPE;
#endif
  JsonLine host;
  host.maybe("cpu_model", detail_host::cpu_model())
      .maybe("nproc", nproc ? std::optional<unsigned>(nproc) : std::nullopt)
      .maybe("cpus_allowed", detail_host::cpus_allowed())
      .maybe("kernel", detail_host::kernel())
      .str("compiler", __VERSION__)
      .maybe("flags", flags)
      .maybe("build_type", build_type)
      .maybe("git_sha", detail_host::git_sha());
  return JsonLine{}.obj("host", host).text();
}

}  // namespace wcq::harness
