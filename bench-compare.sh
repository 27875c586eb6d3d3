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
# sides and the head/base ratios. Then, for raw qps and each end-to-end
# metric of BENCHMARK.json, it prints the head's win count, each side's
# median and quartiles, whether the medians differ by more than the base's
# interquartile range, and whether the head's median is worse than the
# base's by more than the metric's bound. A pair in which either side failed
# a query is not counted as a win, and a run whose output does not parse
# stops the script. Calibrated metrics divide by a calibration kernel's time,
# and that kernel's speed depends on its address mod 64, so the script prints
# main.calibKernel's address mod 64 for both binaries; when the two differ it
# prints a WARNING and exits non-zero after the summary.
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
base_mod=$(calib_mod64 "$work/bench-base")
head_mod=$(calib_mod64 "$work/bench-head")
echo "workload $workload, seed $seed, $pairs pairs of $seconds s runs"
echo "base $base_commit: main.calibKernel mod 64 = $base_mod"
echo "head working tree of $(git -C "$root" rev-parse --short HEAD): main.calibKernel mod 64 = $head_mod"
if [ "$base_mod" != "$head_mod" ]; then
	echo "WARNING: main.calibKernel mod 64 differs (base $base_mod, head $head_mod); the script will exit non-zero after the summary" >&2
fi

# The end-to-end metrics, one "name better bound" line each, from
# BENCHMARK.json's end_to_end list.
metrics=$(awk '
/"end_to_end"/ { on = 1; next }
on && /^[[:space:]]*\]/ { exit }
on && /"name"/ { gsub(/.*"name": *"|".*/, ""); name = $0 }
on && /"better"/ { gsub(/.*"better": *"|".*/, ""); better = $0 }
on && /"bound"/ { gsub(/.*"bound": *|[,[:space:]]*$/, ""); print name, better, $0 }
' "$root/BENCHMARK.json")
if [ -z "$metrics" ]; then
	echo "bench-compare: no end_to_end metrics in $root/BENCHMARK.json" >&2
	exit 1
fi

# run SIDE PAIR prints "raw failed" and then one "metric value" line per
# end-to-end metric for one run of SIDE's binary.
run() {
	local dir=$root
	[ "$1" = base ] && dir=$work/base
	local out
	if ! out=$(cd "$dir/bench" && "$work/bench-$1" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0); then
		echo "bench-compare: pair $2, $1: the benchmark exited with an error" >&2
		exit 1
	fi
	local raw failed json name better bound v
	raw=$(echo "$out" | sed -n 's/.*as the clock read.*: qps \([0-9.]*\),.*/\1/p')
	json=$(echo "$out" | tail -1)
	failed=$(echo "$json" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	if [ -z "$raw" ] || [ -z "$failed" ]; then
		echo "bench-compare: pair $2, $1: cannot read raw qps and failed from the output:" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "$raw $failed"
	while read -r name better bound; do
		v=$(echo "$json" | sed -n "s/.*\"$name\":{\"value\":\([0-9.e+-]*\).*/\1/p")
		if [ -z "$v" ]; then
			echo "bench-compare: pair $2, $1: cannot read $name from the output:" >&2
			echo "$out" >&2
			exit 1
		fi
		echo "$name $v"
	done <<<"$metrics"
}

# results holds one "pair side metric value" line per measurement; the raw
# qps is the metric raw_qps, and failed counts the run's failed queries.
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
	for side in base head; do
		out=$b
		[ "$side" = head ] && out=$h
		echo "$out" | awk -v i="$i" -v s="$side" 'NR == 1 { print i, s, "raw_qps", $1; print i, s, "failed", $2; next } { print i, s, $1, $2 }' >>"$results"
	done
	awk -v i="$i" '$1 == i { v[$2, $3] = $4 }
	END {
		br = v["base", "raw_qps"]; hr = v["head", "raw_qps"]; bc = v["base", "qps"]; hc = v["head", "qps"]
		printf "%4d  %10.2f %10.2f %7.3f  %10.2f %10.2f %7.3f  %d/%d\n", i, br, hr, (br > 0 ? hr / br : 0), bc, hc, (bc > 0 ? hc / bc : 0), v["base", "failed"], v["head", "failed"]
	}' "$results"
done

# Per metric: the head's wins (pairs with failed queries not counted), each
# side's median and quartiles (linear interpolation between order
# statistics), whether the medians differ by more than the base's
# interquartile range, and whether the head's median is worse than the
# base's by more than the metric's bound.
echo "raw_qps higher -
$metrics" | awk '
function sortn(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function q(a, n, p,   h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
FNR == NR { names[++m] = $1; better[$1] = $2; bound[$1] = $3; next }
{ v[$1, $2, $3] = $4; if ($1 > n) n = $1 }
END {
	for (i = 1; i <= n; i++) bad += v[i, "base", "failed"] + v[i, "head", "failed"] > 0
	printf "%d pairs, %d with failed queries (not counted as wins)\n", n, bad
	printf "%-20s %6s %5s  %-32s %-32s %6s  %-16s %s\n", "metric", "better", "wins", "base median [q1, q3]", "head median [q1, q3]", "ratio", "|diff| vs IQR", "head worse than bound"
	for (k = 1; k <= m; k++) {
		name = names[k]; wins = 0
		for (i = 1; i <= n; i++) {
			b[i] = v[i, "base", name]; h[i] = v[i, "head", name]
			if (v[i, "base", "failed"] + v[i, "head", "failed"] == 0)
				wins += better[name] == "higher" ? h[i] > b[i] : h[i] < b[i]
		}
		sortn(b, n); sortn(h, n)
		bmed = q(b, n, .5); hmed = q(h, n, .5); iqr = q(b, n, .75) - q(b, n, .25)
		diff = hmed > bmed ? hmed - bmed : bmed - hmed
		worse = better[name] == "higher" ? bmed - hmed : hmed - bmed
		if (bound[name] == "-")
			verdict = "no bound"
		else if (worse > bound[name] * (bmed < 0 ? -bmed : bmed))
			verdict = "WORSE by more than " bound[name]
		else
			verdict = "no (bound " bound[name] ")"
		printf "%-20s %6s %2d/%-2d  %-32s %-32s %6.3f  %-16s %s\n", name, better[name], wins, n,
			sprintf("%.4g [%.4g, %.4g]", bmed, q(b, n, .25), q(b, n, .75)),
			sprintf("%.4g [%.4g, %.4g]", hmed, q(h, n, .25), q(h, n, .75)),
			(bmed != 0 ? hmed / bmed : 0), sprintf("%.4g %s %.4g", diff, diff > iqr ? ">" : "<=", iqr), verdict
	}
}
' - "$results"

if [ "$base_mod" != "$head_mod" ]; then
	echo "WARNING: main.calibKernel mod 64 differs (base $base_mod, head $head_mod): calibrated metrics are not comparable" >&2
	exit 1
fi
