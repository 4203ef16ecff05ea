#!/bin/sh
# Paired A/B timing of the ledger workloads: a base revision against the
# working tree, run from the checkout root.
#
#   sh bench/ab.sh BASE [N] [SECONDS] [WORKLOAD ...]
#
# BASE is any git revision.  Its committed files are exported (git
# archive, no network) to .bench_build/ab/<commit>/ and built there by
# its own ledger/run.sh; the working tree is the head.  For each
# workload (default: all five ledger workloads) the script runs N pairs
# (default 5) of `sh ledger/run.sh --workload W --seed 42 --seconds
# SECONDS --trace 0` (default 18 s, the benchmark's own setting),
# alternating which side goes first, and prints for sim_s and setup_s
# the median of the paired ratios head/base and a sign-test interval for
# it: the order statistics [r_(k), r_(N+1-k)] of the sorted ratios, with
# their exact binomial coverage (93.8% at N = 5, 96.9% at N = 6, 96.1%
# at N = 9).  An interval that contains 1.0 shows no difference at that
# confidence.  For peak_rss_mb and minor_mwords it prints each side's
# median and their ratio.  Any of the four whose median head/base ratio
# is worse than the metric's bound in BENCHMARK.json is flagged
# "OVER BOUND".  Exits 1 if a run fails, 2 on bad arguments.  Each run
# times itself inside the ledger, so the builds (one per side, on the
# first run) are not in the numbers.  Cost: 2 x N runs per workload,
# each SECONDS plus the ledger's set-up and warm-up.
set -u
usage="usage: sh bench/ab.sh BASE [N] [SECONDS] [WORKLOAD ...]"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
base=$1
n=${2:-5}
secs=${3:-18}
[ $# -ge 3 ] && shift 3 || shift $#
workloads=${*:-shared-kernel partitioned-sweep fleet-churn observed-shared tail-serving}
case "$n" in '' | *[!0-9]*) echo "$usage" >&2; exit 2 ;; esac
[ "$n" -ge 1 ] || { echo "$usage" >&2; exit 2; }
case "$secs" in '' | *[!0-9.]*) echo "$usage" >&2; exit 2 ;; esac
[ -f ledger/run.sh ] || { echo "bench/ab.sh: run it from the checkout root" >&2; exit 2; }

# The judged metrics, in the result line's order, and each one's bound:
# the largest relative worsening BENCHMARK.json allows.
metrics="sim_s setup_s peak_rss_mb minor_mwords"
bounds=
for m in $metrics; do
  b=$(awk -v m="$m" '$0 ~ "\"name\": \"" m "\"" { f = 1 } f && /"bound":/ { gsub(/[^0-9.]/, "", $2); print $2; exit }' BENCHMARK.json)
  [ -n "$b" ] || { echo "bench/ab.sh: no $m bound in BENCHMARK.json" >&2; exit 2; }
  bounds="$bounds $b"
done

commit=$(git rev-parse --verify --quiet "$base^{commit}") ||
  { echo "bench/ab.sh: unknown revision $base" >&2; exit 2; }
head_dir=$PWD
base_dir=$PWD/.bench_build/ab/$commit
if [ ! -f "$base_dir/ledger/run.sh" ]; then
  rm -rf "$base_dir" && mkdir -p "$base_dir" &&
    git archive "$commit" | tar -x -C "$base_dir" || exit 1
fi
out=$PWD/.bench_build/ab/runs
mkdir -p "$out" || exit 1

# One ledger child on one side; its result line goes to $out/<side>.
run() {
  (cd "$1" && sh ledger/run.sh --workload "$3" --seed 42 --seconds "$secs" --trace 0) \
    2>"$out/stderr" | tail -n 1 >"$out/$2"
  case "$(cat "$out/$2")" in
    *'"failed": 0,'*) ;;
    *) echo "bench/ab.sh: $2 run of $3 failed: $(cat "$out/$2") $(tail -n 3 "$out/stderr")" >&2
       exit 1 ;;
  esac
}

metric() { sed -n "s/.*\"$1\": {\"value\": \([0-9.eE+-]*\).*/\1/p" "$out/$2"; }

echo "ab: base $commit, head = working tree; $n pairs of --seconds $secs per workload"
for w in $workloads; do
  : >"$out/pairs"
  i=1
  while [ "$i" -le "$n" ]; do
    # Alternate which side runs first, so drift does not favour one.
    if [ $((i % 2)) -eq 1 ]; then
      run "$base_dir" base "$w" || exit 1
      run "$head_dir" head "$w" || exit 1
    else
      run "$head_dir" head "$w" || exit 1
      run "$base_dir" base "$w" || exit 1
    fi
    for m in $metrics; do printf '%s %s ' "$(metric "$m" base)" "$(metric "$m" head)"; done >>"$out/pairs"
    echo >>"$out/pairs"
    i=$((i + 1))
  done
  col=1
  set -- $bounds
  for m in $metrics; do
    # Sorted head/base ratios, then base values, then head values.
    { awk -v c="$col" '{ print $(c + 1) / $c }' "$out/pairs" | sort -g
      awk -v c="$col" '{ print $c }' "$out/pairs" | sort -g
      awk -v c="$col" '{ print $(c + 1) }' "$out/pairs" | sort -g; } |
      awk -v w="$w" -v m="$m" -v n="$n" -v b="$1" '
        { v[NR] = $1 }
        function median(o) { return (n % 2) ? v[o + (n + 1) / 2] : (v[o + n / 2] + v[o + n / 2 + 1]) / 2 }
        END {
          # Timings: the median paired ratio.  Sizes: head median over
          # base median.
          timing = (m == "sim_s" || m == "setup_s")
          med = timing ? median(0) : median(2 * n) / median(n)
          flag = med > 1 + b ? sprintf(", OVER BOUND (%g%%)", 100 * b) : ""
          if (!timing) {
            printf "ab %s %s: median base %.3f, head %.3f, ratio %.3f%s\n", \
              w, m, median(n), median(2 * n), med, flag
            exit
          }
          # Largest k with P(Binomial(n, 1/2) <= k - 1) <= 2.5%, at least 1.
          k = 1; cdf = 0; p = 0.5 ^ n; term = p
          for (j = 0; j < n; j++) {
            cdf += term
            if (cdf > 0.025) break
            k = j + 1
            term = term * (n - j) / (j + 1)
          }
          if (k > (n + 1) / 2) k = int((n + 1) / 2)
          below = 0; term = p
          for (j = 0; j < k; j++) { below += term; term = term * (n - j) / (j + 1) }
          lo = v[k]; hi = v[n + 1 - k]
          printf "ab %s %s: median ratio %.3f, %.1f%% interval [%.3f, %.3f], %s%s\n", \
            w, m, med, 100 * (1 - 2 * below), lo, hi, \
            (lo <= 1 && hi >= 1) ? "contains 1.0" : (hi < 1 ? "head faster" : "head slower"), flag
        }'
    col=$((col + 2))
    shift
  done
done
