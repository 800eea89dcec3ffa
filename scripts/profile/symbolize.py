#!/usr/bin/env python3
"""Symbolize the samples of scripts/profile/sampler.c and print the top
functions by self and inclusive share.

Usage: symbolize.py <executable> <samples> [frame] [top]

Symbols come from `nm`. A frame outside the executable (libc, the
allocator) is dropped, so its time counts as self time of the first
function of the executable that called it. With `frame`, only samples
whose stack passes through a function whose name contains `frame` count,
e.g. `DeploymentPool<S>::run_flows` for a pool's timed work.
"""

import bisect
import re
import struct
import subprocess
import sys
from collections import Counter


def symbols(exe):
    """Sorted (start, end, name) of the executable's functions."""
    out = subprocess.run(
        ["nm", "--demangle", "--defined-only", "--print-size", exe],
        check=True, capture_output=True, text=True,
    ).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            start, size = int(parts[0], 16), int(parts[1], 16)
            # Drop the legacy mangling's trailing hash.
            syms.append((start, start + size, re.sub(r"::h[0-9a-f]{16}$", "", parts[3])))
    syms.sort()
    return syms


def samples(path):
    """The load base and every sample's raw words."""
    data = open(path, "rb").read()
    header, _, body = data.partition(b"\n")
    base = int(header.split()[1], 16)
    stacks, at = [], 0
    while at + 8 <= len(body):
        (n,) = struct.unpack_from("<Q", body, at)
        stacks.append(struct.unpack_from(f"<{n}Q", body, at + 8))
        at += 8 * (n + 1)
    return base, stacks


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    exe, path = sys.argv[1], sys.argv[2]
    frame = sys.argv[3] if len(sys.argv) > 3 and sys.argv[3] else None
    top = int(sys.argv[4]) if len(sys.argv) > 4 else 25
    syms = symbols(exe)
    starts = [s[0] for s in syms]
    base, raw = samples(path)

    def name(addr):
        i = bisect.bisect_right(starts, addr - base) - 1
        if i >= 0 and addr - base < syms[i][1]:
            return syms[i][2]
        return None

    selfs, incl, kept = Counter(), Counter(), 0
    for words in raw:
        pc, at_sp, chain = words[0], words[1], words[2:]
        # Return addresses point after their call; step back into it. A
        # PC outside the executable in a leaf with no frame of its own:
        # the word at the stack pointer is its return address.
        leaf = name(pc) or name(at_sp - 1)
        stack = [leaf] if leaf else []
        stack += [f for f in (name(a - 1) for a in chain) if f]
        if not stack or (frame and not any(frame in f for f in stack)):
            continue
        kept += 1
        selfs[stack[0]] += 1
        for f in set(stack):
            incl[f] += 1

    print(f"{kept} of {len(raw)} samples" + (f" through {frame}" if frame else ""))
    for title, counts in (("self", selfs), ("inclusive", incl)):
        print(f"\ntop {top} by {title} share:")
        for f, c in counts.most_common(top):
            print(f"{100.0 * c / max(kept, 1):6.1f}%  {f}")


if __name__ == "__main__":
    main()
