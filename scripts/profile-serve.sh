#!/usr/bin/env bash
# Profile gbkmvd under one of the benchmark's serving workloads:
#
#   scripts/profile-serve.sh serve-read [seed]
#
# Builds what bench/run.sh builds, where it builds it (.bench_build/), and
# runs the workload with a two-line wrapper in gbkmvd's place that adds
# -debug-addr. While the harness runs, every daemon it starts is sampled in
# back-to-back 3 s windows — /debug/pprof/allocs?seconds=3 and
# /debug/pprof/profile?seconds=3 together — and each window is labelled with
# the requests the daemon answered in it. The main phase is the only stretch
# of the run that keeps a daemon saturated for seconds on end (set-ups,
# probes and restarts send a few thousand requests each), so the busiest
# window lies inside it: that window's two profiles are printed with
# `go tool pprof -top -cum`, and all of them are left in
# .bench_build/profile/ for `go tool pprof` to open.
set -euo pipefail
workload=${1:?usage: scripts/profile-serve.sh <serve-read|serve-write|serve-mixed> [seed]}
seed=${2:-1}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
out="$build/profile"
rm -rf "$out"
mkdir -p "$out" "$build/home" "$build/tmp" "$build/bin"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/bin/bench" . && go build -o "$build/bin/gbkmvd" gbkmv/cmd/gbkmvd)

# One daemon runs at a time, so they can share a debug port. The wrapper
# notes each one's API address (the harness passes -addr first) on its way.
port=$((20000 + RANDOM % 20000))
cat > "$out/gbkmvd" <<EOF
#!/bin/sh
echo "\$2" >> "$out/daemons"
exec "$build/bin/gbkmvd" -debug-addr 127.0.0.1:$port "\$@"
EOF
chmod +x "$out/gbkmvd"

"$build/bin/bench" -gbkmvd "$out/gbkmvd" -work "$build/run" \
	--workload "$workload" --seed "$seed" --seconds 10 --trace 0 > "$out/result.json" &
bench=$!

# requests <addr>: how many requests that daemon has answered so far.
requests() {
	curl -sf --max-time 2 "http://$1/metrics" | awk '/^gbkmv_http_requests_total/ { n += $NF } END { printf "%d\n", n }'
}
window=0
while kill -0 "$bench" 2> /dev/null; do
	addr=$(tail -n 1 "$out/daemons" 2> /dev/null || true)
	before=$([ -n "$addr" ] && requests "$addr" || true)
	if [ -z "$before" ]; then
		sleep 0.05
		continue
	fi
	window=$((window + 1))
	curl -sf --max-time 10 -o "$out/allocs.$window" "http://127.0.0.1:$port/debug/pprof/allocs?seconds=3" &
	allocs=$!
	curl -sf --max-time 10 -o "$out/cpu.$window" "http://127.0.0.1:$port/debug/pprof/profile?seconds=3" &
	cpu=$!
	# A daemon that is killed mid-window (set-ups and restarts end that way)
	# leaves a window that does not count.
	ok=0
	wait "$allocs" || ok=$?
	wait "$cpu" || ok=$?
	echo "window $window: daemon $addr, $before requests in, curl exit $ok" >> "$out/log"
	if [ "$ok" = 0 ] && after=$(requests "$addr") && [ -n "$after" ]; then
		echo "$((after - before)) $window" >> "$out/windows"
	fi
done
wait "$bench" || { echo "the benchmark run failed; see above" >&2; exit 1; }

[ -s "$out/windows" ] || { echo "no daemon lived through a 3 s window; see $out/log" >&2; exit 1; }
read -r served busiest < <(sort -rn "$out/windows" | head -n 1)
echo "== $workload, seed $seed: window $busiest, $served requests in 3 s =="
echo "== result: $(cat "$out/result.json")"
for kind in allocs cpu; do
	echo
	echo "== $kind (go tool pprof -top -cum $build/bin/gbkmvd $out/$kind.$busiest) =="
	sample=()
	[ "$kind" = allocs ] && sample=(-sample_index=alloc_space)
	go tool pprof -top -cum -nodecount=60 "${sample[@]}" "$build/bin/gbkmvd" "$out/$kind.$busiest" 2> /dev/null
done
