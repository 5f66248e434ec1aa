#!/usr/bin/env bash
# Compare the machine code of the queue hot paths between a base
# revision and the working tree.
#
# Usage: scripts/codegen_diff.sh <base-ref>
#
# Compiles one probe translation unit twice with the same flags, once
# against <base-ref>'s include/ (read with `git archive`) and once
# against the working tree's. The unit holds one extern "C" wrapper per
# hot path: push/pop of ScqQueue, CcqQueue, NcqQueue and the LSCQ
# segment (TwoRingQueue<ScqRing, FinalScqRing>), WcqRing's
# enqueue_idx/dequeue_idx, and WcqQueue's try_push/try_pop.
#
# A wrapper's code is its own disassembly plus that of every function
# of the unit it calls, transitively (the out-of-line note helpers, for
# example). Section offsets, raw bytes and relocation addresses are
# dropped; instructions, branch targets relative to the function and
# relocation symbols are kept. Prints one line per wrapper: `same` or
# `DIFF`, then the instruction counts at the base and in the tree.
#
# The flags are the Release build's (-O3 -DNDEBUG) plus the library's
# -mcx16; the compiler is $CXX, g++ when unset. Exits 1 when a
# plain-queue or ring wrapper differs (wCQ's try_push and try_pop are
# reported only), 2 on a usage or build error.
set -euo pipefail

[[ $# -eq 1 ]] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$root" rev-parse --verify "$1^{commit}") || exit 2
cxx=${CXX:-g++}
flags=(-std=c++20 -O3 -DNDEBUG -mcx16 -ffunction-sections)

dir=$(mktemp -d "${TMPDIR:-/tmp}/codegen_diff.XXXXXX")
trap 'rm -rf "$dir"' EXIT
mkdir "$dir/base"
git -C "$root" archive "$base_sha" include | tar -x -C "$dir/base"

cat >"$dir/probe.cpp" <<'EOF'
#include <cstdint>

#include "wcq/ccq.hpp"
#include "wcq/lscq.hpp"
#include "wcq/ncq.hpp"
#include "wcq/scq.hpp"
#include "wcq/wcq.hpp"

using LscqSegment = wcq::TwoRingQueue<wcq::ScqRing, wcq::FinalScqRing>;
using Noted = wcq::WcqRing;

extern "C" {
bool scq_push(wcq::ScqQueue& q, std::uint64_t v) { return q.push(v); }
bool scq_pop(wcq::ScqQueue& q, std::uint64_t* v) { return q.pop(v); }
bool ccq_push(wcq::CcqQueue& q, std::uint64_t v) { return q.push(v); }
bool ccq_pop(wcq::CcqQueue& q, std::uint64_t* v) { return q.pop(v); }
bool ncq_push(wcq::NcqQueue& q, std::uint64_t v) { return q.push(v); }
bool ncq_pop(wcq::NcqQueue& q, std::uint64_t* v) { return q.pop(v); }
bool lscq_segment_push(LscqSegment& q, std::uint64_t v) { return q.push(v); }
bool lscq_segment_pop(LscqSegment& q, std::uint64_t* v) { return q.pop(v); }
int noted_enqueue_idx(Noted& r, std::uint64_t i, std::uint64_t n) {
  return r.enqueue_idx(i, n);
}
int noted_dequeue_idx(Noted& r, std::uint64_t* i, std::uint64_t n) {
  return r.dequeue_idx(i, n);
}
bool wcq_try_push(wcq::WcqQueue& q, std::uint64_t v, wcq::WcqQueue::Handle& h) {
  return q.try_push(v, h);
}
bool wcq_try_pop(wcq::WcqQueue& q, std::uint64_t* v, wcq::WcqQueue::Handle& h) {
  return q.try_pop(v, h);
}
}
EOF

for side in base tree; do
  inc="$dir/base/include"
  [[ $side == tree ]] && inc="$root/include"
  "$cxx" "${flags[@]}" -I"$inc" -c "$dir/probe.cpp" -o "$dir/$side.o" ||
    { echo "codegen_diff: $side build failed" >&2; exit 2; }
  objdump -dr --no-show-raw-insn "$dir/$side.o" >"$dir/$side.lst"
done

python3 - "$dir/base.lst" "$dir/tree.lst" <<'EOF'
import re
import sys

PROBES = [
    "scq_push", "scq_pop", "ccq_push", "ccq_pop", "ncq_push", "ncq_pop",
    "lscq_segment_push", "lscq_segment_pop",
    "noted_enqueue_idx", "noted_dequeue_idx",
    "wcq_try_push", "wcq_try_pop",
]
REPORT_ONLY = {"wcq_try_push", "wcq_try_pop"}


def parse(path):
    """symbol -> (normalised lines, instruction count, callees)."""
    funcs, cur = {}, None
    for line in open(path):
        line = line.rstrip("\n")
        m = re.match(r"^[0-9a-f]+ <(.+)>:$", line)
        if m:
            cur = m.group(1)
            funcs[cur] = ([], 0, set())
            continue
        if cur is None or not line.strip():
            continue
        body, count, callees = funcs[cur]
        m = re.match(r"^\s*[0-9a-f]+:\s+(R_\S+)\s+(\S+)$", line)
        if m:  # relocation: keep its type and symbol
            body.append(m.group(1) + " " + m.group(2))
            callees.add(re.sub(r"[-+]0x[0-9a-f]+$", "", m.group(2)))
            continue
        m = re.match(r"^\s*[0-9a-f]+:\s+(.*)$", line)
        if m:
            body.append(re.sub(r"\s+", " ", m.group(1)).strip())
            funcs[cur] = (body, count + 1, callees)
    return funcs


def closure(funcs, name):
    seen, todo = [], [name]
    while todo:
        f = todo.pop()
        if f in seen or f not in funcs:
            continue
        seen.append(f)
        todo.extend(sorted(funcs[f][2]))
    lines, count = [], 0
    for f in [name] + sorted(seen[1:]):
        lines.append("<" + f + ">")
        lines.extend(funcs[f][0])
        count += funcs[f][1]
    return lines, count


base, tree = parse(sys.argv[1]), parse(sys.argv[2])
bad = 0
print(f"{'function':<20} {'code':<5} {'base':>6} {'tree':>6}")
for p in PROBES:
    if p not in base or p not in tree:
        print(f"{p:<20} missing")
        bad += p not in REPORT_ONLY
        continue
    bl, bn = closure(base, p)
    tl, tn = closure(tree, p)
    same = bl == tl
    print(f"{p:<20} {'same' if same else 'DIFF':<5} {bn:>6} {tn:>6}")
    bad += not same and p not in REPORT_ONLY
sys.exit(1 if bad else 0)
EOF
