#!/usr/bin/env bash
# Profile gbkmvd under one of the benchmark's serving workloads:
#
#   scripts/profile-serve.sh serve-read [seed]        allocation and CPU profiles of the busiest 3 s
#   scripts/profile-serve.sh serve-read [seed] phase  what the whole main phase allocated
#   scripts/profile-serve.sh serve-read [seed] rss    what set rss_mb, and when
#   scripts/profile-serve.sh serve-read [seed] setup  CPU profile of the set-up that setup_s times
#
# Builds what bench/run.sh builds, where it builds it (.bench_build/), and
# runs the workload with a two-line wrapper in gbkmvd's place that adds
# -debug-addr. While the harness runs, every daemon it starts is sampled in
# back-to-back 3 s windows — /debug/pprof/allocs?seconds=3 and
# /debug/pprof/profile?seconds=3 together — and each window is labelled with
# the requests the daemon answered in it, all of them and those of the kind
# the workload's main phase sends (inserts for serve-write, searches and
# top-ks for the others). The window table is printed, and the two profiles
# of the window that answered the most main-phase requests — on serve-write
# the build and its 4 096-query warm-up answer more requests than either
# insert window — with `go tool pprof -top -cum`; all of them are left in
# .bench_build/profile/ for `go tool pprof` to open. A window is a sample of
# the phase, not the phase: growth comes in bursts (a store's next chunk, a
# posting list doubling, a map growing), so the busiest 3 s read 7 kB an insert
# where serve-write's phase averages 9; what a phase allocated is the phase
# mode's to say.
#
# With phase the daemons are scraped every 0.2 s instead: the cumulative
# /debug/pprof/allocs between two reads of the request counters, which count
# the workload's requests (search, top-k, insert, snapshot; not /metrics or
# /healthz). The daemon that served the main phase answers the 4 096 of the
# warm-up pass (bench/serve.go), then the main phase's — their number is in
# the harness's first log line, "… N+P ops" — then the probes'. Of that daemon
# it keeps the last profile whose scrape ended with no more than the warm-up
# answered and the first whose scrape began with the main phase answered, and
# prints `go tool pprof -sample_index=alloc_space -top -cum -base` of the two
# — every byte the phase allocated — with how many warm-up and probe requests
# the two scrapes let in at its ends, and the scrapes' own share
# (net/http/pprof, runtime/pprof, /metrics) printed apart, since
# alloc_kb_per_op does not pay it.
#
# With rss the daemons run under GODEBUG=gctrace=1 instead and are sampled
# every 50 ms: VmRSS and VmHWM from /proc/<pid>/status, beside the stage the
# daemon is in — build until it logs "built collection", warm-up until it has
# answered the 4096 queries of the harness's warm-up pass, main from then on
# (the probe passes that follow the main phase on the same daemon included).
# For the daemon that served the main phase — the one that answered the most
# requests — it prints the rises of VmHWM (a row a megabyte, and the last) with
# their stage, the gctrace lines around the last one, and the steady-state
# VmRSS (the median over the main stage). rss_mb is VmHWM as the main phase ends: a last rise
# above it happened in a probe.
#
# With setup every daemon gets one CPU profile, from its first answer until
# it has answered the 4 096 searches and top-ks of the warm-up pass: gbkmvd's
# /debug/pprof/profile?until=stop, ended by /debug/pprof/profile/stop when a
# read of /metrics (every 20 ms) shows the warm-up answered. That is the
# set-up setup_s times — daemon start, PUT, warm-up — which lasts about a
# second, and whose daemon, but for the last, is killed the moment it ends:
# the 3 s windows miss it. The profile of the last set-up daemon (the last
# that answered a PUT and the warm-up, and so lived on into the main phase) is
# printed with `go tool pprof -top -cum`, with the requests answered as it
# started and stopped; the earlier set-up daemons' profiles are lost with
# them, or left in .bench_build/profile/ when the stop won the race.
set -euo pipefail
usage="usage: scripts/profile-serve.sh <serve-read|serve-write|serve-mixed> [seed] [phase|rss|setup]"
workload=${1:?$usage}
seed=${2:-1}
mode=${3:-profile}
case "$mode" in profile | phase | rss | setup) ;; *) echo "$usage" >&2; exit 2 ;; esac
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
# notes each one's API address (the harness passes -addr first) and pid on its
# way.
port=$((20000 + RANDOM % 20000))
launch="exec \"$build/bin/gbkmvd\" -debug-addr 127.0.0.1:$port \"\$@\""
# The heap profile samples one allocation in 512 kB by default, too coarse to
# add a phase up by function: one in 8 kB there.
[ "$mode" = phase ] && launch="GODEBUG=memprofilerate=8192 $launch"
if [ "$mode" = rss ]; then
	launch="GODEBUG=gctrace=1 exec \"$build/bin/gbkmvd\" \"\$@\" 2> \"$out/stderr.\$\$\""
fi
cat > "$out/gbkmvd" <<EOF
#!/bin/sh
echo "\$2 \$\$" >> "$out/daemons"
$launch
EOF
chmod +x "$out/gbkmvd"
: > "$out/daemons" # the harness starts its first daemon a second in

"$build/bin/bench" -gbkmvd "$out/gbkmvd" -work "$build/run" \
	--workload "$workload" --seed "$seed" --seconds 10 --trace 0 > "$out/result.json" 2> >(tee "$out/harness.log" >&2) &
bench=$!
warm=4096 # bench/serve.go's warm-up pass

# requests <addr>: how many requests that daemon has answered so far, how
# many of the workload's main-phase kind, and how many of the workload's kinds.
main_kind='/(search|topk)"'
[ "$workload" = serve-write ] && [ "$mode" != setup ] && main_kind='/records"'
requests() {
	curl -sf --max-time 2 "http://$1/metrics" | awk -v kind="$main_kind" '
		/^gbkmv_http_requests_total/ { n += $NF; if ($0 ~ kind) m += $NF; if ($0 ~ /\/(search|topk|records|snapshot)"/) w += $NF }
		END { printf "%d %d %d\n", n, m, w }'
}

if [ "$mode" = rss ]; then
	hz=$(getconf CLK_TCK)
	while kill -0 "$bench" 2> /dev/null; do
		sleep 0.05
		read -r addr pid < <(tail -n 1 "$out/daemons" 2> /dev/null) || continue
		# Seconds since the process started, which is what gctrace's @ counts.
		at=$(awk -v hz="$hz" 'NR == FNR { up = $1; next } { sub(/.*\) /, ""); printf "%.2f", up - $20 / hz }' \
			/proc/uptime "/proc/$pid/stat" 2> /dev/null) || continue
		mem=$(awk '/^VmRSS:/ { rss = $2 } /^VmHWM:/ { hwm = $2 } END { printf "%.1f %.1f", rss / 1024, hwm / 1024 }' \
			"/proc/$pid/status" 2> /dev/null) || continue
		# All requests answered, and those of the warm-up pass's kinds.
		read -r all queries < <(curl -sf --max-time 2 "http://$addr/metrics" | awk '
			/^gbkmv_http_requests_total/ { n += $NF; if ($0 ~ /\/(search|topk)"/) q += $NF }
			END { printf "%d %d\n", n, q }')
		stage=build
		if grep -q "built collection" "$out/stderr.$pid" 2> /dev/null; then
			stage=warm-up
			if [ "$queries" -ge "$warm" ] || [ "$all" -gt $((queries + warm)) ]; then
				stage=main
			fi
		fi
		echo "$at $mem $stage $all" >> "$out/samples.$pid"
	done
	wait "$bench" || { echo "the benchmark run failed; see above" >&2; exit 1; }
	served=0
	for f in "$out"/samples.*; do
		n=$(tail -n 1 "$f" | awk '{ print $5 }')
		if [ "$n" -ge "$served" ]; then
			served=$n
			pid=${f##*.}
		fi
	done
	echo "== $workload, seed $seed: daemon $pid answered $served requests =="
	echo "== result: $(cat "$out/result.json")"
	echo
	echo "== VmHWM rises (s since start, stage, VmRSS MB, VmHWM MB, requests answered) =="
	awk '$3 > hwm { hwm = $3; row = sprintf("%7.2fs  %-8s %6.1f %6.1f  %d", $1, $4, $2, $3, $5) }
		hwm >= shown + 1 { print row; shown = hwm; row = "" }
		END { if (row != "") print row }' "$out/samples.$pid"
	last=$(awk '$3 > hwm { hwm = $3; at = $1 } END { print at }' "$out/samples.$pid")
	echo
	echo "== gctrace around the last rise, at ${last}s ($out/stderr.$pid) =="
	awk -v at="$last" '/^gc [0-9]+ @/ { t = substr($3, 2) + 0; line[++n] = $0; if (t <= at) before = n }
		END { for (i = before - 3; i <= before + 3; i++) if (i >= 1 && i <= n) print line[i] }' "$out/stderr.$pid"
	echo
	grep "built collection" "$out/stderr.$pid" || true
	awk '$4 == "main" { print $2 }' "$out/samples.$pid" | sort -n |
		awk '{ v[NR] = $1 } END { if (NR) printf "== steady state: VmRSS %.1f MB, the median of %d samples over the main stage ==\n", v[int((NR + 1) / 2)], NR }'
	exit 0
fi

if [ "$mode" = phase ]; then
	# base.<pid>: the last profile whose scrape ended with no more than the
	# warm-up answered, its counts in base.<pid>.n; scrape.<pid>.<n> each later
	# one, listed in scrapes with the counts read before and after it.
	n=0
	while kill -0 "$bench" 2> /dev/null; do
		sleep 0.2
		read -r addr pid < <(tail -n 1 "$out/daemons" 2> /dev/null) || continue
		before=$(requests "$addr") && [ -n "$before" ] || continue
		curl -sf --max-time 5 -o "$out/scrape" "http://127.0.0.1:$port/debug/pprof/allocs" || continue
		after=$(requests "$addr") && [ -n "$after" ] || continue
		if [ "${after##* }" -le "$warm" ]; then
			mv "$out/scrape" "$out/base.$pid"
			echo "${before##* } ${after##* }" > "$out/base.$pid.n"
		else
			n=$((n + 1))
			mv "$out/scrape" "$out/scrape.$pid.$n"
			echo "$pid $n ${before##* } ${after##* }" >> "$out/scrapes"
		fi
	done
	wait "$bench" || { echo "the benchmark run failed; see above" >&2; exit 1; }
	main=$(sed -n 's/.* \([0-9]*\)+[0-9]* ops;.*/\1/p' "$out/harness.log" | head -n 1)
	[ -n "$main" ] || { echo "no op count in the harness log $out/harness.log" >&2; exit 1; }
	end=$((warm + main))
	# The first scrape that began with the main phase answered, and its daemon.
	read -r pid last < <(awk -v end="$end" '$3 >= end { print $1, $2; exit }' "$out/scrapes" 2> /dev/null) || true
	[ -n "${pid:-}" ] && [ -s "$out/base.$pid" ] || { echo "no daemon was scraped before and after its $main main-phase requests (from $warm on); see $out/scrapes" >&2; exit 1; }
	read -r b0 _ < "$out/base.$pid.n"
	read -r _ _ _ e1 < <(awk -v pid="$pid" -v n="$last" '$1 == pid && $2 == n' "$out/scrapes")
	mv "$out/scrape.$pid.$last" "$out/phase.after"
	mv "$out/base.$pid" "$out/phase.before"
	rm -f "$out"/scrape.* "$out"/base.*
	echo "== $workload, seed $seed: daemon $pid, $main main-phase requests between $out/phase.before and $out/phase.after =="
	echo "== besides them, up to $((warm - b0)) warm-up requests answered after the first scrape began and $((e1 - end)) probe requests before the second ended =="
	echo "== result: $(cat "$out/result.json")"
	scraper='net/http/pprof|runtime/pprof|obs\.\(\*Registry\)'
	diff() {
		go tool pprof -top -cum -sample_index=alloc_space "$@" -base "$out/phase.before" "$build/bin/gbkmvd" "$out/phase.after" 2> /dev/null
	}
	echo
	echo "== the phase, scrapes left out (go tool pprof -top -cum -sample_index=alloc_space -ignore '$scraper' -base phase.before $build/bin/gbkmvd phase.after) =="
	diff -nodecount=70 -ignore "$scraper"
	echo
	echo "== the scrapes' own share (-focus in place of -ignore) =="
	diff -nodecount=6 -focus "$scraper"
	exit 0
fi

if [ "$mode" = setup ]; then
	# profiles: daemon, profile, curl exit, then all requests, searches +
	# top-ks and PUTs answered as it started and as it stopped.
	n=0
	seen=0
	while kill -0 "$bench" 2> /dev/null; do
		[ "$(wc -l < "$out/daemons")" -gt "$seen" ] || { sleep 0.005; continue; }
		seen=$(wc -l < "$out/daemons")
		addr=$(tail -n 1 "$out/daemons" | cut -d " " -f 1)
		# The API port's first answer is the start: the debug port comes
		# up with it.
		until before=$(requests "$addr") && [ -n "$before" ]; do
			kill -0 "$bench" 2> /dev/null || break 2
			sleep 0.005
		done
		n=$((n + 1))
		curl -sf --max-time 120 -o "$out/cpu.$n" "http://127.0.0.1:$port/debug/pprof/profile?until=stop" &
		profile=$!
		after=$before
		while kill -0 "$bench" 2> /dev/null && [ "$(wc -l < "$out/daemons")" -eq "$seen" ]; do
			sleep 0.02
			after=$(requests "$addr") && [ -n "$after" ] || { after=$before; break; }
			read -r _ queries _ <<< "$after"
			[ "$queries" -ge "$warm" ] && break
		done
		curl -sf --max-time 2 "http://127.0.0.1:$port/debug/pprof/profile/stop" || true
		ok=0
		wait "$profile" || ok=$?
		puts=$(curl -sf --max-time 2 "http://$addr/metrics" | awk '/^gbkmv_http_requests_total\{endpoint="PUT / { n += $NF } END { print n + 0 }') || puts=0
		echo "$addr $n $ok $before $after $puts" >> "$out/profiles"
	done
	wait "$bench" || { echo "the benchmark run failed; see above" >&2; exit 1; }
	# The last set-up daemon: the last one that was built (a PUT) and whose
	# profile came back with the warm-up answered.
	read -r addr n _ all0 queries0 _ all1 queries1 _ _ < <(awk -v warm="$warm" '$3 == 0 && $10 > 0 && $8 >= warm' "$out/profiles" | tail -n 1) ||
		{ echo "no set-up daemon's profile came back; see $out/profiles" >&2; exit 1; }
	echo "== $workload, seed $seed: the last set-up daemon, $addr, profiled from $all0 requests answered to $all1, searches + top-ks $queries0 to $queries1 =="
	echo "== result: $(cat "$out/result.json")"
	echo
	echo "== set-up CPU (go tool pprof -top -cum $build/bin/gbkmvd $out/cpu.$n) =="
	go tool pprof -top -cum -nodecount=60 "$build/bin/gbkmvd" "$out/cpu.$n" 2> /dev/null
	exit 0
fi

window=0
refused=
while kill -0 "$bench" 2> /dev/null; do
	addr=$(tail -n 1 "$out/daemons" | cut -d " " -f 1)
	# No daemon yet, one that is gone, or one whose debug port refused (a
	# restart's daemon can come up before its predecessor let go of the port):
	# wait for the next.
	if [ -z "$addr" ] || [ "$addr" = "$refused" ] || ! before=$(requests "$addr") || [ -z "$before" ]; then
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
	[ "$ok" = 7 ] && refused=$addr
	if [ "$ok" = 0 ] && after=$(requests "$addr") && [ -n "$after" ]; then
		read -r all0 main0 _ <<< "$before"
		read -r all1 main1 _ <<< "$after"
		echo "$((main1 - main0)) $((all1 - all0)) $window $addr" >> "$out/windows"
	fi
done
wait "$bench" || { echo "the benchmark run failed; see above" >&2; exit 1; }

[ -s "$out/windows" ] || { echo "no daemon lived through a 3 s window; see $out/log" >&2; exit 1; }
echo "== windows (main-phase requests, all requests, window, daemon) =="
cat "$out/windows"
read -r served all busiest _ < <(sort -rn "$out/windows" | head -n 1)
echo "== $workload, seed $seed: window $busiest, $served main-phase requests of $all in 3 s =="
echo "== result: $(cat "$out/result.json")"
for kind in allocs cpu; do
	echo
	echo "== $kind (go tool pprof -top -cum $build/bin/gbkmvd $out/$kind.$busiest) =="
	sample=()
	[ "$kind" = allocs ] && sample=(-sample_index=alloc_space)
	go tool pprof -top -cum -nodecount=60 "${sample[@]}" "$build/bin/gbkmvd" "$out/$kind.$busiest" 2> /dev/null
done
