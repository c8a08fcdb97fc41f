#!/bin/sh
# Paired A/B runs of the frozen benchmark on two prebuilt binaries: the
# evidence a performance claim needs (choosing-metrics section 8).
#
#   tools/ab.sh <parent-binary> <change-binary> <workload> <pairs> <seconds> [first-seed]
#
# One seed per pair (first-seed, first-seed+1, ...), the side that runs first
# alternating from pair to pair. Prints every pair, then per end-to-end
# metric each side's median and quartiles (the interpolation benchmark/
# prints: Python's statistics.quantiles, exclusive), the ratio of the
# medians and how many pairs the change won (all four metrics are
# lower-is-better; a tie counts for neither side). Build each binary once,
# from its own checkout into its own target directory:
#
#   CARGO_TARGET_DIR=<dir> cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
#
# Writes no file.
set -eu

if [ $# -lt 5 ] || [ $# -gt 6 ]; then
    sed -n '2,/^set -eu/s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
parent=$1
change=$2
workload=$3
pairs=$4
seconds=$5
seed0=${6:-401}
metrics="wall_ns_per_op sim_ns_per_op peak_rss_mib setup_s"

# One run: "wall sim rss setup failed", pulled out of the result line.
run() {
    line=$("$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1)
    for m in $metrics; do
        v=$(printf '%s\n' "$line" | sed -n "s/.*\"$m\": {\"value\": \([^,]*\),.*/\1/p")
        [ -n "$v" ] || { echo "no $m in: $line" >&2; exit 1; }
        printf '%s ' "$v"
    done
    printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\),.*/\1/p'
}

# stdin: one number per line. stdout: "median q1 q3" (median alone for one).
quartiles() {
    sort -n | awk '
        { s[NR] = $1 }
        END {
            n = NR
            if (n == 1) { printf "%.4f\n", s[1]; exit }
            for (i = 1; i <= 3; i++) {
                j = int(i * (n + 1) / 4)
                if (j < 1) j = 1
                if (j > n - 1) j = n - 1
                d = i * (n + 1) - j * 4
                q[i] = (s[j] * (4 - d) + s[j + 1] * d) / 4
            }
            printf "%.4f %.4f %.4f\n", q[2], q[1], q[3]
        }'
}

echo "$workload: $pairs pairs of $seconds s, seeds $seed0..$((seed0 + pairs - 1))"
echo "columns: $metrics failed"
rows=""
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then
        p=$(run "$parent" "$seed")
        c=$(run "$change" "$seed")
        order="parent first"
    else
        c=$(run "$change" "$seed")
        p=$(run "$parent" "$seed")
        order="change first"
    fi
    echo "pair $((i + 1)) seed $seed ($order)"
    echo "  parent $p"
    echo "  change $c"
    rows="$rows$p $c
"
    i=$((i + 1))
done

echo
echo "metric: parent median (q1 q3) -> change median (q1 q3), ratio, wins/pairs"
k=1
for m in $metrics; do
    pq=$(printf '%s' "$rows" | awk -v k="$k" '{ print $k }' | quartiles)
    cq=$(printf '%s' "$rows" | awk -v k="$((k + 5))" '{ print $k }' | quartiles)
    wins=$(printf '%s' "$rows" | awk -v k="$k" '
        $(k + 5) < $k { w++ }
        $(k + 5) == $k { t++ }
        END { printf "%d/%d", w, NR; if (t) printf " (%d tied)", t }')
    printf '%s\n%s\n' "$pq" "$cq" | paste -d' ' - - | awk -v m="$m" -v wins="$wins" '
        NF == 2 { printf "%-15s %s -> %s, x%.3f, %s\n", m, $1, $2, $2 / $1, wins }
        NF == 6 { printf "%-15s %s (%s %s) -> %s (%s %s), x%.3f, %s\n",
                  m, $1, $2, $3, $4, $5, $6, $4 / $1, wins }'
    k=$((k + 1))
done
printf '%s' "$rows" | awk '{ p += $5; c += $10 } END { printf "ops failed: parent %d, change %d\n", p, c }'
