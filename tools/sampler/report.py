#!/usr/bin/env python3
"""Symbolise a sampler.c dump: share of CPU samples per function.

usage: report.py DUMP [--top N] [--sum REGEX ...] [--by-thread REGEX ...]
                 [--lines REGEX]
       report.py DUMP --allocs [--top N] [--depth N]

Each sample is one instruction pointer, so a share is *self* time; frames
inlined at that address (addr2line -i, needs at least line-tables debug info)
are kept as a chain, innermost first. The table ranks innermost frames;
`--sum` adds up the samples whose chain matches any of the given regexes.
`--by-thread` labels each thread by the first regex, in the order given, that
any of its samples' chains matches ("other" if none does) and prints one
table, with its own `--sum` line, per label.
`--lines` takes the samples whose innermost function matches the regex and
counts them by source line: the innermost file:line, then the frames it is
inlined into, each with its own line. With `--by-thread` it prints one such
table per label, after that label's function table.

`--allocs` reads an allocsites.c dump instead: it symbolises each sampled
allocation's call stack, drops the frames whose source path matches `SKIP`
(the hook, libc, the standard library and the benchmark's allocator), and
groups the samples by their first `--depth` remaining frames, ranked by
sampled bytes.

An address with no line information that lies past the end of every symbol
`readelf -Ws --dyn-syms` lists for its object (a stripped libc's internal
string functions) is named `<object>+0x<page>`, not after the export
addr2line falls back to.
"""
import argparse
import bisect
import collections
import os
import re
import subprocess


# Source paths of the frames every allocation stack shares: the hook, libc
# and other objects without line tables, the Rust standard library, and the
# benchmark's counting allocator. `--allocs` groups by the frames below.
SKIP = r"^\?\?|allocsites\.c|/rustc/|benchmark/src/alloc\.rs"


def load(path):
    """maps, CPU samples (tid, ip), allocation samples (size, [ip...]),
    dropped count, and the allocation totals line."""
    maps, samples, allocs, dropped, totals = [], [], [], 0, None
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
        elif kind == "S":
            tid, ip = rest.split()[:2]
            samples.append((int(tid), int(ip, 16)))
        elif kind == "A":
            f = rest.split()
            # Callers' frames are return addresses: step back into the call.
            allocs.append((int(f[0]), [int(x, 16) - 1 for x in f[1:]]))
        elif kind == "T":
            totals = [int(x) for x in rest.split()]
        elif kind == "D":
            dropped = int(rest)
    return maps, samples, allocs, dropped, totals


def symbolise(maps, ips):
    """ip -> tuple of (function, file:line) frames, innermost first."""
    base = {}  # a PIE object's load base is the start of its first mapping
    for lo, _, obj in maps:
        base[obj] = min(lo, base.get(obj, lo))
    by_obj = collections.defaultdict(set)
    for ip in set(ips):
        obj = next((o for lo, hi, o in maps if lo <= ip < hi), None)
        if obj:
            by_obj[obj].add(ip)
    chains = {}
    for obj, addrs in by_obj.items():
        addrs = sorted(addrs)
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-C", "-i", "-e", obj],
            input="\n".join(hex(a - base[obj]) for a in addrs),
            capture_output=True, text=True, check=True).stdout.splitlines()
        # "-a" prints each address on a line of its own before its
        # (function, file:line) pairs, which is what delimits a chain.
        i, fn = -1, True
        for line in out:
            if line.startswith("0x"):
                i += 1
                chains[addrs[i]] = []
                fn = True
            else:
                if fn:
                    chains[addrs[i]].append((line, "??:0"))
                else:
                    chains[addrs[i]][-1] = (chains[addrs[i]][-1][0], line)
                fn = not fn
        unexported(obj, addrs, base[obj], chains)
    return {ip: tuple(c) or (("??", "??:0"),) for ip, c in chains.items()}


def unexported(obj, addrs, base, chains):
    """Rename the innermost frame of each address in `addrs` that has no line
    information and that no function symbol of `obj` covers: addr2line names
    it after the nearest preceding symbol, which for a stripped object is an
    unrelated export. The new name is the object and the 4 KiB page."""
    todo = [a for a in addrs if chains[a] and chains[a][0][1].startswith("??")]
    if not todo:
        return
    out = subprocess.run(["readelf", "-Ws", "--dyn-syms", obj],
                         capture_output=True, text=True).stdout
    spans = sorted({(int(f[1], 16), int(f[1], 16) + int(f[2], 0))
                    for f in (line.split() for line in out.splitlines())
                    if len(f) >= 8 and f[3] in ("FUNC", "IFUNC") and f[6] != "UND"})
    starts = [lo for lo, _ in spans]
    reach, end = [], 0  # reach[i]: the furthest end among spans[:i + 1]
    for _, hi in spans:
        end = max(end, hi)
        reach.append(end)
    name = os.path.basename(obj)
    for a in todo:
        off = a - base
        i = bisect.bisect_right(starts, off) - 1
        if i < 0 or reach[i] <= off:
            chains[a][0] = (f"{name}+{off & ~0xfff:#x}", chains[a][0][1])


def table(ips, chains, top, sums):
    """Self-time shares of `ips`, then the `--sum` share."""
    total = len(ips)
    self_time = collections.Counter(chains.get(ip, ("[unmapped]",))[0] for ip in ips)
    for fn, n in self_time.most_common(top):
        print(f"{100 * n / total:6.2f}%  {fn}")
    if sums:
        pats = [re.compile(p) for p in sums]
        hit = sum(any(p.search(f) for p in pats for f in chains.get(ip, ())) for ip in ips)
        print(f"{100 * hit / total:6.2f}%  sum over {sums}")


def short(fn, where):
    """`f<T>`, `.../crates/core/src/vci.rs:812 (discriminator 2)` ->
    `core/src/vci.rs:812 f`: the path's last three parts, no generic args."""
    prev = None
    while prev != fn:
        prev, fn = fn, re.sub(r"(?<=\w)<[^<>]*>", "", fn)
    path = where.split(" ")[0]
    return "/".join(path.split("/")[-3:]) + " " + fn


def lines(ips, frames, pattern, top, scope="all"):
    """The samples whose innermost function matches `pattern`, by line."""
    pat = re.compile(pattern)
    hits = [ip for ip in ips if ip in frames and pat.search(frames[ip][0][0])]
    print(f"\n{len(hits)} samples ({100 * len(hits) / max(len(ips), 1):.2f}% of {scope}) "
          f"in functions matching {pattern!r}, by line (innermost first):")
    by_line = collections.Counter(
        tuple(short(fn, where) for fn, where in frames[ip]) for ip in hits)
    for chain, n in by_line.most_common(top):
        print(f"{n:6d} {100 * n / max(len(hits), 1):6.2f}%  {chain[0]}")
        for outer in chain[1:]:
            print(f"{'':15s}<- {outer}")


def allocs(maps, stacks, totals, top, depth):
    """Sampled allocations grouped by their first `depth` frames past
    `SKIP`, ranked by bytes."""
    frames = symbolise(maps, [ip for _, st in stacks for ip in st])
    pat = re.compile(SKIP)
    groups = collections.defaultdict(lambda: [0, 0])
    for size, st in stacks:
        kept = [short(fn, where) for ip in st for fn, where in frames.get(ip, ())
                if not pat.search(where)]
        g = groups[tuple(kept[:depth]) or ("(no frame outside SKIP)",)]
        g[0] += 1
        g[1] += size
    total = sum(size for size, _ in stacks)
    if totals:
        every, seen, seen_bytes = totals
        print(f"1 in {every} of {seen} allocations of the minimum size or more "
              f"({seen_bytes} B) sampled: {len(stacks)} stacks, {total} B")
    for stack, (n, b) in sorted(groups.items(), key=lambda g: -g[1][1])[:top]:
        print(f"\n{n:6d} samples {b:10d} B {100 * b / max(total, 1):6.2f}%  "
              f"mean {b // n} B")
        for frame in stack:
            print(f"{'':8s}{frame}")


def by_thread(samples, chains, regexes):
    """label -> the ips of the threads it labels, in the order given."""
    pats = [re.compile(p) for p in regexes]
    frames = collections.defaultdict(set)
    for tid, ip in samples:
        frames[tid].update(chains.get(ip, ()))
    label = {
        tid: next((p.pattern for p in pats if any(p.search(f) for f in fns)), "other")
        for tid, fns in frames.items()
    }
    groups = {name: [] for name in regexes + ["other"]}
    for tid, ip in samples:
        groups[label[tid]].append(ip)
    return {name: ips for name, ips in groups.items() if ips}, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--sum", nargs="*", default=[], metavar="REGEX")
    ap.add_argument("--by-thread", nargs="+", default=[], metavar="REGEX")
    ap.add_argument("--lines", metavar="REGEX")
    ap.add_argument("--allocs", action="store_true")
    ap.add_argument("--depth", type=int, default=6)
    args = ap.parse_args()
    maps, samples, stacks, dropped, totals = load(args.dump)
    if args.allocs:
        print(f"{len(stacks)} allocation samples ({dropped} dropped)")
        allocs(maps, stacks, totals, args.top, args.depth)
        return
    ips = [ip for _, ip in samples]
    frames = symbolise(maps, ips)
    chains = {ip: tuple(fn for fn, _ in f) for ip, f in frames.items()}
    print(f"{len(ips)} samples ({dropped} dropped)")
    if not args.by_thread:
        if args.lines:
            lines(ips, frames, args.lines, args.top)
        table(ips, chains, args.top, args.sum)
        return
    groups, label = by_thread(samples, chains, args.by_thread)
    for name, group in groups.items():
        threads = sum(1 for t in label.values() if t == name)
        print(f"\n== {name}: {threads} thread(s), {len(group)} samples "
              f"({100 * len(group) / len(ips):.1f}% of all)")
        table(group, chains, args.top, args.sum)
        if args.lines:
            lines(group, frames, args.lines, args.top, "this label")


if __name__ == "__main__":
    main()
