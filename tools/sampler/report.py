#!/usr/bin/env python3
"""Symbolise a sampler.c dump: share of CPU samples per function.

usage: report.py DUMP [--top N] [--sum REGEX ...]

Each sample is one instruction pointer, so a share is *self* time; frames
inlined at that address (addr2line -i, needs at least line-tables debug info)
are kept as a chain, innermost first. The table ranks innermost frames;
`--sum` adds up the samples whose chain matches any of the given regexes.
"""
import argparse
import collections
import re
import subprocess


def load(path):
    maps, ips, dropped = [], [], 0
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "M":
            f = rest.split()
            if len(f) >= 6 and f[5].startswith("/"):
                lo, hi = (int(x, 16) for x in f[0].split("-"))
                maps.append((lo, hi, f[5]))
        elif kind == "S":
            ips.append(int(rest.split()[1], 16))
        elif kind == "D":
            dropped = int(rest)
    return maps, ips, dropped


def symbolise(maps, ips):
    """ip -> tuple of function names, innermost first."""
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
                    chains[addrs[i]].append(line)
                fn = not fn
    return {ip: tuple(c) or ("??",) for ip, c in chains.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--sum", nargs="*", default=[], metavar="REGEX")
    args = ap.parse_args()
    maps, ips, dropped = load(args.dump)
    chains = symbolise(maps, ips)
    total = len(ips)
    print(f"{total} samples ({dropped} dropped)")
    self_time = collections.Counter(chains.get(ip, ("[unmapped]",))[0] for ip in ips)
    for fn, n in self_time.most_common(args.top):
        print(f"{100 * n / total:6.2f}%  {fn}")
    if args.sum:
        pats = [re.compile(p) for p in args.sum]
        hit = sum(any(p.search(f) for p in pats for f in chains.get(ip, ())) for ip in ips)
        print(f"{100 * hit / total:6.2f}%  sum over {args.sum}")


if __name__ == "__main__":
    main()
