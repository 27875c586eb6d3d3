#!/usr/bin/env bash
# bench-compare.sh: compare one workload of the repo benchmark between a base
# revision and the working tree, in alternating pairs of runs.
#
#   ./bench-compare.sh REV WORKLOAD SEED PAIRS
#   make bench-compare REV=<rev> W=<workload> SEED=<n> PAIRS=<n>
#
# The base side is REV's committed files, exported with `git archive` into a
# temporary directory; the head side is the working tree. Each side's
# benchmark binary is built once. Every pair runs both binaries back to back
# for BENCHMARK.json's run_seconds, the order alternating from pair to pair,
# each from its own checkout so it reads its own BENCHMARK.json. SEED should
# be one no earlier comparison has used.
#
# Per pair it prints raw ("as the clock read") and calibrated qps of both
# sides and the head/base ratios; then the head's win count on each, each
# side's median and quartiles, and whether the medians differ by more than
# the base's interquartile range. A pair in which either side failed a query
# is not counted as a win, and a run whose output does not parse stops the
# script. Calibrated qps divides by a calibration kernel's time, and that
# kernel's speed depends on its address mod 64, so the script prints
# main.calibKernel's address mod 64 for both binaries: compare calibrated
# figures only when the two agree.
set -euo pipefail

if [ $# -ne 4 ]; then
	echo "usage: $0 REV WORKLOAD SEED PAIRS" >&2
	exit 2
fi
rev=$1 workload=$2 seed=$3 pairs=$4

root=$(git rev-parse --show-toplevel)
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench-compare.XXXXXX")
trap 'rm -rf "$work"' EXIT

base_commit=$(git -C "$root" rev-parse --short "$rev^{commit}")
mkdir "$work/base"
git -C "$root" archive "$base_commit" | tar -x -C "$work/base"
go build -C "$work/base/bench" -o "$work/bench-base" .
go build -C "$root/bench" -o "$work/bench-head" .

calib_mod64() {
	local addr
	addr=$(go tool nm "$1" | awk '$3 == "main.calibKernel" { print $1 }')
	if [ -z "$addr" ]; then
		echo "?"
	else
		echo $((16#$addr % 64))
	fi
}
echo "workload $workload, seed $seed, $pairs pairs of $seconds s runs"
echo "base $base_commit: main.calibKernel mod 64 = $(calib_mod64 "$work/bench-base")"
echo "head working tree of $(git -C "$root" rev-parse --short HEAD): main.calibKernel mod 64 = $(calib_mod64 "$work/bench-head")"

# run SIDE PAIR prints "raw calibrated failed" for one run of SIDE's binary.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$work/base
	local out
	if ! out=$(cd "$dir/bench" && "$work/bench-$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
		echo "bench-compare: pair $2, $1: the benchmark exited with an error" >&2
		exit 1
	fi
	local raw cal failed
	raw=$(echo "$out" | sed -n 's/.*as the clock read.*: qps \([0-9.]*\),.*/\1/p')
	cal=$(echo "$out" | tail -1 | sed -n 's/.*"qps":{"value":\([0-9.e+-]*\).*/\1/p')
	failed=$(echo "$out" | tail -1 | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$raw" ] || [ -z "$cal" ] || [ -z "$failed" ]; then
		echo "bench-compare: pair $2, $1: cannot read raw qps, calibrated qps and failed from the output:" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "$raw $cal $failed"
}

results=$work/results
printf '%4s  %10s %10s %7s  %10s %10s %7s  %s\n' pair raw-base raw-head ratio cal-base cal-head ratio failed
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$i")
		h=$(run head "$i")
	else
		h=$(run head "$i")
		b=$(run base "$i")
	fi
	read -r braw bcal bfail <<<"$b"
	read -r hraw hcal hfail <<<"$h"
	echo "$braw $hraw $bcal $hcal $((bfail + hfail))" >>"$results"
	awk -v i="$i" -v br="$braw" -v hr="$hraw" -v bc="$bcal" -v hc="$hcal" -v f="$bfail/$hfail" \
		'BEGIN { printf "%4d  %10.2f %10.2f %7.3f  %10.2f %10.2f %7.3f  %s\n", i, br, hr, (br > 0 ? hr / br : 0), bc, hc, (bc > 0 ? hc / bc : 0), f }'
done

# Quartiles by linear interpolation between order statistics.
awk '
function sortn(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
function report(name, b, h, n, wins, bad,   bq1, bmed, bq3, hq1, hmed, hq3) {
	sortn(b, n); sortn(h, n)
	bq1 = q(b, n, .25); bmed = q(b, n, .5); bq3 = q(b, n, .75)
	hq1 = q(h, n, .25); hmed = q(h, n, .5); hq3 = q(h, n, .75)
	printf "%-10s head wins %d/%d (%d pairs with failed queries not counted); ", name, wins, n, bad
	printf "base median %.2f [%.2f, %.2f], head median %.2f [%.2f, %.2f]; ", bmed, bq1, bq3, hmed, hq1, hq3
	printf "median ratio %.3f; |median difference| %.2f %s base IQR %.2f\n", \
		(bmed > 0 ? hmed / bmed : 0), (hmed > bmed ? hmed - bmed : bmed - hmed), \
		((hmed > bmed ? hmed - bmed : bmed - hmed) > bq3 - bq1 ? ">" : "<="), bq3 - bq1
}
{ n++; br[n] = $1; hr[n] = $2; bc[n] = $3; hc[n] = $4; ok = $5 == 0; bad += !ok; rw += ok && $2 > $1; cw += ok && $4 > $3 }
END { report("raw", br, hr, n, rw, bad); report("calibrated", bc, hc, n, cw, bad) }
' "$results"
