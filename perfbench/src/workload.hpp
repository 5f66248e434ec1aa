// The benchmark's three closed-loop workloads and the seeded inputs
// they draw on. Why each one exists is in perfbench/README.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "checker.hpp"

namespace perfbench {

// Worker threads in every closed-loop run (the reference host has 4
// CPUs; one thread per CPU keeps preemption out of the tails).
inline constexpr unsigned kThreads = 4;

enum class Kind { pairwise, poll, burst };

struct Spec {
  Kind kind;
  std::string_view name;
  unsigned order;  // ring order of every subject (capacity 2^order)
  unsigned burst;  // burst only: mean values one thread pushes per burst
};

// pairwise: order 16, the paper's Fig. 11b setting; the ring streams
//           past L2 and the op is the ring fast path.
// poll:     same ring, one push then two pops, so half the pops find
//           the queue empty (threshold and catchup path).
// burst:    an in-cache order-10 ring; 4 threads x ~384 values
//           overflow its 1024 slots, so bounded queues refuse pushes
//           and LSCQ turns segments over.
inline std::optional<Spec> spec_for(std::string_view name) {
  if (name == "pairwise") return Spec{Kind::pairwise, "pairwise", 16, 0};
  if (name == "poll") return Spec{Kind::poll, "poll", 16, 0};
  if (name == "burst") return Spec{Kind::burst, "burst", 10, 384};
  return std::nullopt;
}

// Per-thread burst lengths: uniform in [3B/4, 5B/4], drawn from the
// run seed and the thread id, so a seed fixes every thread's sequence.
class BurstLengths {
 public:
  BurstLengths(std::uint64_t seed, unsigned tid, unsigned mean)
      : state_(mix(seed ^ mix(tid + 1))), mean_(mean) {}

  unsigned next() {
    state_ = mix(state_);
    return mean_ * 3 / 4 + static_cast<unsigned>(state_ % (mean_ / 2 + 1));
  }

 private:
  std::uint64_t state_;
  unsigned mean_;
};

// The XOR key applied to every tagged payload.
inline std::uint64_t payload_key(std::uint64_t seed) {
  // Bits above the producer field only, so a keyed tag still decodes
  // to the same producer and sequence.
  return mix(seed) & ~((std::uint64_t{1} << (kSeqBits + 8)) - 1);
}

// Thread 0's op sequence (true = push, false = pop) for `ops` ops,
// the schedule the single-threaded layer replays follow. Balanced: a
// lone thread pops exactly what it pushed by the end. `ways` > 1 gives
// the share one of that many round-robin shards sees of each burst.
inline std::vector<bool> schedule(const Spec& spec, std::uint64_t seed,
                                  std::size_t ops, unsigned ways = 1) {
  std::vector<bool> s;
  s.reserve(ops + 2 * spec.burst);
  BurstLengths lengths(seed, 0, spec.burst);
  while (s.size() < ops) {
    switch (spec.kind) {
      case Kind::pairwise:
        s.insert(s.end(), {true, false});
        break;
      case Kind::poll:
        s.insert(s.end(), {true, false, false});
        break;
      case Kind::burst: {
        const unsigned k = (lengths.next() + ways - 1) / ways;
        s.insert(s.end(), k, true);
        s.insert(s.end(), k, false);
        break;
      }
    }
  }
  return s;
}

}  // namespace perfbench
