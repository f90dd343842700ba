#!/usr/bin/env bash
# Alternating paired runs, a base revision against the working tree, of the
# benchmark or of a package's Go benchmarks:
#
#   scripts/pairs.sh <rev> [-n 10] -- <bench/run.sh arguments>
#   scripts/pairs.sh HEAD -- -workload serve-read -seed 1 -seconds 10
#   scripts/pairs.sh <rev> [-n 10] -go <pkg> -bench <re> [-- <test binary flags>]
#   scripts/pairs.sh HEAD -go ./internal/core -bench 'DesignCorpus/save/default$' -- -test.benchtime 10x
#
# Builds both sides with bench/run.sh's offline environment: <rev> from
# `git archive` into .bench_build/pairs/base/, and the working tree into
# .bench_build/pairs/change/. Without -go it builds the harness and gbkmvd
# and runs the harness with the arguments given — one -workload a run, so
# that each prints one JSON line. With -go it builds <pkg>'s test binary
# (`go test -c`) and runs it in the package's directory with -test.run '^$'
# -test.bench <re> -test.timeout 30m and the flags given (one -test.count, so
# each benchmark prints one line a run). Either way it runs n times a side,
# alternating: the change first in odd pairs, the base first in even ones.
# Each run's output, log and exit status stay in .bench_build/pairs/out/.
#
# It prints one markdown table, CHANGES.md's pair-table format: for every
# metric in the runs' lines (BENCHMARK.json's end-to-end metrics, or its
# per-layer ones under -trace 1; under -go, every benchmark's ns/op and each
# other unit its line reports — lower is better, except a unit per second)
# a row a side, with the value of each pair,
# the median and quartiles (interpolated at (n+1)p) and, on the change's row,
# the pairs in which the change is better by the metric's direction, beside
# how far apart the medians are and how far apart the base's quartiles are:
# a claimed gain has to be better in 9 of 10 pairs with the medians further
# apart than the base's quartiles. A run that exits non-zero or prints
# "correct": false keeps its column: the status row says so, its cells read
# "—" (no line) or carry the values it printed, and it counts in no median
# and wins no pair. The exit status is 1 if any run failed, 0 otherwise.
set -euo pipefail
usage="usage: scripts/pairs.sh <rev> [-n pairs] -- <bench/run.sh arguments>
       scripts/pairs.sh <rev> [-n pairs] -go <pkg> -bench <re> [-- <test binary flags>]"
rev=${1:?$usage}
shift
n=10
pkg=
re=
while [ $# -gt 0 ]; do
	case "$1" in
	-n) n=${2:?$usage}; shift 2 ;;
	-go) pkg=${2:?$usage}; shift 2 ;;
	-bench) re=${2:?$usage}; shift 2 ;;
	--) shift; break ;;
	*) echo "$usage" >&2; exit 2 ;;
	esac
done
[ "$n" -ge 1 ] 2> /dev/null || { echo "$usage" >&2; exit 2; }
if [ -n "$pkg$re" ] && { [ -z "$pkg" ] || [ -z "$re" ]; }; then
	echo "$usage" >&2
	exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
sha=$(git -C "$root" rev-parse --short "$rev^{commit}")
build="$root/.bench_build"
pairs="$build/pairs"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

rm -rf "$pairs"
mkdir -p "$pairs/base/src" "$pairs/change" "$pairs/out"
git -C "$root" archive "$sha" | tar -x -C "$pairs/base/src"
# build <tree> <bin dir>: what bench/run.sh builds, from that tree, or
# under -go the package's test binary.
build() {
	if [ -n "$pkg" ]; then
		(cd "$1" && go test -c -o "$2/pkg.test" "$pkg")
	else
		(cd "$1/bench" && go build -o "$2/bench" . && go build -o "$2/gbkmvd" gbkmv/cmd/gbkmvd)
	fi
}
build "$pairs/base/src" "$pairs/base"
build "$root" "$pairs/change"

# run <side> <pair>: one run, its output in out/<side>.<pair>.stdout (the
# harness's last line also in out/<side>.<pair>.json), its exit status in
# out/<side>.<pair>.exit. The harness finds BENCHMARK.json from the tree it
# is run in; a test binary reads its testdata from the package's directory.
run() {
	local side=$1 pair=$2 tree=$root status=0
	shift 2
	[ "$side" = base ] && tree="$pairs/base/src"
	if [ -n "$pkg" ]; then
		(cd "$tree/$pkg" && "$pairs/$side/pkg.test" -test.run '^$' -test.bench "$re" -test.timeout 30m "$@")
	else
		(cd "$tree" && "$pairs/$side/bench" -gbkmvd "$pairs/$side/gbkmvd" -work "$pairs/run" "$@")
	fi > "$pairs/out/$side.$pair.stdout" 2> "$pairs/out/$side.$pair.log" || status=$?
	tail -n 1 "$pairs/out/$side.$pair.stdout" > "$pairs/out/$side.$pair.json"
	echo "$status" > "$pairs/out/$side.$pair.exit"
	echo "pair $pair $side: exit $status" >&2
	[ "$status" = 0 ] || tail -n 1 "$pairs/out/$side.$pair.log" >&2
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run change "$i" "$@"
		run base "$i" "$@"
	else
		run base "$i" "$@"
		run change "$i" "$@"
	fi
done

# One "side pair status metric value" line a run and metric; the status is
# ok, incorrect or exit N, and a run without a line gives a line with no
# metric. A Go benchmark's metric is its name, "@" and the unit.
for side in base change; do
	for i in $(seq 1 "$n"); do
		status=$(cat "$pairs/out/$side.$i.exit")
		line="$pairs/out/$side.$i.json"
		if [ -n "$pkg" ]; then
			awk -v s="$side $i" -v code="$status" '
				$1 ~ /^Benchmark/ && $2 ~ /^[0-9]+$/ {
					for (f = 3; f < NF; f += 2) metric[++k] = $1 "@" $(f + 1) " " $f
				}
				END {
					status = code != 0 ? "exit_" code : k ? "ok" : "no_line"
					if (!k) print s, status
					for (j = 1; j <= k; j++) print s, status, metric[j]
				}' "$pairs/out/$side.$i.stdout"
			continue
		fi
		correct=$(jq -r 'select(.metrics) | .correct' "$line" 2> /dev/null || true)
		if [ "$status" != 0 ]; then
			status="exit $status"
		elif [ -z "$correct" ]; then
			status="no line"
		elif [ "$correct" != true ]; then
			status=incorrect
		else
			status=ok
		fi
		if [ -n "$correct" ]; then
			jq -r --arg s "$side $i ${status// /_}" '.metrics | to_entries[] | "\($s) \(.key) \(.value.value)"' "$line"
		else
			echo "$side $i ${status// /_}"
		fi
	done
done > "$pairs/out/values"
# The metrics in BENCHMARK.json's order, or under -go in the order the
# benchmarks printed them, each with its unit and direction.
if [ -n "$pkg" ]; then
	awk 'NF == 5 && !seen[$4]++ { u = $4; sub(/^.*@/, "", u); print $4, u, (u ~ /\/s$/ ? "higher" : "lower") }' \
		"$pairs/out/values" > "$pairs/out/metrics"
	what="go test -c $pkg; pkg.test -test.run '^\$' -test.bench '$re'${*:+ $*}"
else
	jq -r '(.end_to_end + .per_layer)[] | "\(.name) \(.unit) \(.better)"' "$root/BENCHMARK.json" > "$pairs/out/metrics"
	what="bash bench/run.sh $*"
fi

echo "\`$what\`, $n pairs on $(nproc) cores, $(go version | cut -d' ' -f3): base $rev ($sha) against the working tree, the change first in odd pairs."
echo
awk -v n="$n" '
	# quantile of the sorted v[1..k] at (k+1)p, clamped to the ends.
	function quantile(v, k, p,   h, f) {
		h = (k + 1) * p
		if (h <= 1) return v[1]
		if (h >= k) return v[k]
		f = int(h)
		return v[f] + (h - f) * (v[f + 1] - v[f])
	}
	# stats fills q with the quartiles of metric m over the valid runs of
	# a side, the median in q[2], and returns how many there were.
	function stats(side, m, q,   i, j, k, x, v) {
		k = 0
		for (i = 1; i <= n; i++) {
			if (status[side, i] != "ok" || !((side, i, m) in val)) continue
			x = val[side, i, m] + 0
			for (j = k; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
			v[j + 1] = x
			k++
		}
		if (k == 0) return 0
		q[1] = quantile(v, k, 0.25); q[2] = quantile(v, k, 0.5); q[3] = quantile(v, k, 0.75)
		return k
	}
	function abs(x) { return x < 0 ? -x : x }
	FILENAME ~ /metrics$/ { order[++metrics] = $1; unit[$1] = $2; better[$1] = $3; next }
	{
		s = $3; gsub(/_/, " ", s); status[$1, $2] = s
		if (NF == 5) { val[$1, $2, $4] = $5; seen[$4] = 1 }
	}
	END {
		printf "| metric | side |"
		for (i = 1; i <= n; i++) printf " %d |", i
		printf " median (quartiles) | change better |\n|---|---|"
		for (i = 1; i <= n; i++) printf "---|"
		printf "---|---|\n"
		for (s = 1; s <= 2; s++) {
			side = s == 1 ? "base" : "change"
			printf "| status | %s |", side
			for (i = 1; i <= n; i++) printf " %s |", status[side, i]
			printf " | |\n"
		}
		for (o = 1; o <= metrics; o++) {
			m = order[o]
			if (!(m in seen)) continue
			hb = stats("base", m, qb); hc = stats("change", m, qc)
			for (s = 1; s <= 2; s++) {
				side = s == 1 ? "base" : "change"
				name = m
				sub(/@[^@]*$/, "", name)
				printf "| `%s` (%s) | %s |", name, unit[m], side
				for (i = 1; i <= n; i++) printf " %s |", (side, i, m) in val ? sprintf("%.6g", val[side, i, m]) : "—"
				if ((s == 1 ? hb : hc) == 0) printf " — |"
				else if (s == 1) printf " %.6g (%.6g–%.6g) |", qb[2], qb[1], qb[3]
				else printf " %.6g (%.6g–%.6g) |", qc[2], qc[1], qc[3]
				if (s == 1) { printf " |\n"; continue }
				wins = ties = 0
				for (i = 1; i <= n; i++) {
					if (status["base", i] != "ok" || status["change", i] != "ok") continue
					if (!(("base", i, m) in val) || !(("change", i, m) in val)) continue
					d = val["change", i, m] - val["base", i, m]
					if (better[m] == "lower" ? d < 0 : d > 0) wins++
					if (d == 0) ties++
				}
				printf " %d of %d", wins, n
				if (ties) printf " (%d tied)", ties
				if (hb && hc && qb[2] != 0) printf "; median %+.1f %%", 100 * (qc[2] - qb[2]) / qb[2]
				if (hb && hc) printf "; medians %.3g apart, base quartiles %.3g", abs(qc[2] - qb[2]), qb[3] - qb[1]
				printf " |\n"
			}
		}
	}' "$pairs/out/metrics" "$pairs/out/values"
if grep -qv '^[a-z]* [0-9]* ok ' "$pairs/out/values"; then
	exit 1
fi
