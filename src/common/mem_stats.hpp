// Harness-side view of memory consumption, two complementary gauges:
//
//  - the counting allocator (wcq/mem.hpp): peak live bytes the
//    algorithm *requested* — exact, allocator-slack-free, but blind to
//    whatever the C++ runtime does underneath. Benches call
//    mem::reset() before a run and mem::stats().peak_bytes after.
//  - the kernel's resident set (VmRSS): what the process actually
//    holds — includes allocator slack and fragmentation, which is the
//    number a deployment sees. rss_bytes() reads it.
//
// Reporting both keeps Figure 10 honest: a queue that frees promptly
// through the SMR layer shows a low allocator peak *and* a low RSS; a
// leak shows up in both; an allocator that hoards shows up only in the
// second.
#pragma once

#include <cstdint>
#include <cstdio>

#include "wcq/mem.hpp"

namespace wcq::mem {

// Resident set size in bytes (VmRSS), 0 when unavailable.
inline std::uint64_t rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB",
                    reinterpret_cast<unsigned long long*>(&kib)) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib * 1024;
#else
  return 0;
#endif
}

}  // namespace wcq::mem
