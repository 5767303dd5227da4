#!/usr/bin/env bash
# Production-coverage audit: lists every function of the module that no
# binary and no root-package test reaches.
#
#   bash scripts/prodcover.sh        (or: make prodcover)
#
# Every command under cmd/, the five examples and the perfbench harness
# are built with -cover over the whole module and run end to end under
# one GOCOVERDIR:
#
#   - ossm-gen for every dataset kind, and ossm-mine for every miner;
#   - a coordinator over two shard workers taking /v1/ubsup and /v1/mine,
#     driven by ossm-loadgen -target and polled by ossm-loadgen -fleetz,
#     then a topology reload and a worker going down;
#   - an -ingest server taking /v1/ingest, and its restart;
#   - the CLIs' and the server's refusals of bad input;
#   - a small ossm-bench all, and the examples;
#   - the four perfbench workloads.
#
# The root package's tests add their in-process coverage, because the
# root package is the public API and its tests are that API's callers.
# Servers are stopped with SIGTERM: a SIGKILLed process writes no
# counters. The output is `go tool covdata func` cut to the functions at
# 0%: each one is root-package API, a test-only export, behaviour no
# end-to-end run exercises, or dead code. perfbench's own functions and
# internal/oracle (test support, linked by no binary) are left out.
# Not part of `make test`; with a warm build cache it takes under a
# minute on two cores.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
module=github.com/ossm-mining/ossm
work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do
		kill -TERM "$p" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

bin=$work/bin cov=$work/cov data=$work/data
mkdir -p "$bin" "$cov" "$data"
export GOCOVERDIR=$cov

if go list -deps ./cmd/... ./examples/... . | grep -qx "$module/internal/oracle"; then
	echo "prodcover: a binary links internal/oracle, which is test support" >&2
	exit 1
fi

echo "prodcover: building instrumented binaries"
go build -cover -coverpkg="$module/..." -o "$bin/" ./cmd/... ./examples/...
(cd perfbench && go build -cover -coverpkg="$module/..." -o "$bin/perfbench" .)

# step runs one command with its output kept in $work/log, failing the
# audit (with that output) if the command fails.
step() {
	echo "prodcover: $*"
	if ! "$@" >"$work/log" 2>&1; then
		cat "$work/log" >&2
		echo "prodcover: failed: $*" >&2
		exit 1
	fi
}

# serve starts ossm-serve with the given flags, logging to $work/$1.log,
# and sets $url once it is listening and $pid to its process id.
serve() {
	local name=$1
	shift
	"$bin/ossm-serve" -addr 127.0.0.1:0 "$@" >"$work/$name.log" 2>&1 &
	pid=$!
	pids+=("$pid")
	for _ in $(seq 250); do
		url=$(sed -n 's/.*listening on \([^ ]*\).*/http:\/\/\1/p' "$work/$name.log" | head -1)
		[[ -n $url ]] && return 0
		kill -0 "$pid" 2>/dev/null || break
		sleep 0.02
	done
	cat "$work/$name.log" >&2
	echo "prodcover: ossm-serve $name never listened" >&2
	exit 1
}

# stop sends SIGTERM to a server and waits for its clean exit, so its
# counters are written.
stop() {
	kill -TERM "$1"
	wait "$1" || { echo "prodcover: server $1 exited $?" >&2; exit 1; }
}

# call issues one HTTP request and fails the audit on a non-2xx answer.
call() {
	if [[ $# -eq 3 ]]; then
		step curl -sS -f -X "$1" -H 'Content-Type: application/json' -d "$3" "$2"
	else
		step curl -sS -f -X "$1" "$2"
	fi
}

# answers POSTs a JSON body and fails the audit unless the status
# matches the pattern $1.
answers() {
	local code
	echo "prodcover: POST $2 $3 (want $1)"
	code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$3" "$2")
	[[ $code =~ ^$1$ ]] || { echo "prodcover: got $code" >&2; exit 1; }
}

# refuses runs a command that must exit nonzero.
refuses() {
	echo "prodcover: $* (must fail)"
	if "$@" >"$work/log" 2>&1; then
		cat "$work/log" >&2
		echo "prodcover: succeeded: $*" >&2
		exit 1
	fi
}

# logged waits for a line matching $2 in server log $1.
logged() {
	for _ in $(seq 250); do
		grep -q "$2" "$work/$1.log" && return 0
		sleep 0.02
	done
	echo "prodcover: $1 never logged $2" >&2
	exit 1
}

step "$bin/ossm-gen" -kind quest -tx 3000 -items 200 -drift 0.2 -shuffle 50 -out "$data/quest.bin"
step "$bin/ossm-gen" -kind skewed -tx 3000 -items 200 -out "$data/skewed.txt"
step "$bin/ossm-gen" -kind alarm -tx 2000 -out "$data/alarm.bin"

for m in apriori dhp eclat partition depthproject fpgrowth; do
	step "$bin/ossm-mine" -in "$data/quest.bin" -support 0.02 -miner "$m" -metrics
	step "$bin/ossm-mine" -in "$data/skewed.txt" -support 0.02 -miner "$m" -ossm -segments 20 -workers 2 -rules 0.5
done
step "$bin/ossm-mine" -in "$data/quest.bin" -support 0.02 -ossm -alg greedy -bubble 50 \
	-cpuprofile "$work/cpu.out" -memprofile "$work/mem.out" -trace "$work/trace.out"
refuses "$bin/ossm-mine" -in "$data/missing.bin"
refuses "$bin/ossm-gen" -kind nosuch -out "$data/x.bin"
refuses "$bin/ossm-serve" -addr 127.0.0.1:0 -data "retail=$data/quest.bin" -data "bad=$data/missing.bin"

# A coordinator over two shard workers.
entry=(-data "retail=$data/quest.bin" -build-segments 20)
workers=()
for i in 0 1; do
	serve "worker$i" -shard-role worker -shard-id "$i" -shard-count 2 "${entry[@]}"
	workers+=("$pid:${url#http://}")
done
printf '{"shards":[{"id":0,"addr":"%s"},{"id":1,"addr":"%s"}]}\n' \
	"${workers[0]#*:}" "${workers[1]#*:}" >"$work/topology.json"
# The coordinator also lists an entry the workers do not hold.
serve coordinator -topology "$work/topology.json" -trace-buffer 256 -pprof "${entry[@]}" -data "extra=$data/quest.bin"
coord=$url coordPID=$pid
call GET "$coord/healthz"
call GET "$coord/v1/indexes"
call POST "$coord/v1/ubsup" '{"index":"retail","itemset":[3,1]}'
call POST "$coord/v1/ubsup" '{"index":"retail","itemsets":[[1],[2,5],[7,8,9]]}'
call POST "$coord/v1/mine" '{"index":"retail","miner":"apriori","support":0.02,"top":5}'
call POST "$coord/v1/mine" '{"index":"retail","miner":"eclat","support":0.02}'
answers 404 "$coord/v1/ubsup" '{"index":"nosuch","itemset":[1]}'
answers 400 "$coord/v1/ubsup" '{"index":"retail","itemset":[100000]}'
# The workers answer 404 for "extra"; any error status will do here.
answers '[45][0-9][0-9]' "$coord/v1/ubsup" '{"index":"extra","itemset":[1]}'
step "$bin/ossm-loadgen" -target "$coord" -index-name retail -duration 500ms -concurrency 2 -batch 16
step "$bin/ossm-loadgen" -target "$coord" -index-name retail -mode open -qps 100 -duration 300ms -batch 8
step "$bin/ossm-loadgen" -fleetz -target "$coord" -duration 300ms -fleetz-interval 100ms
kill -HUP "$coordPID"
logged coordinator "topology reloaded"
call POST "$coord/v1/ubsup" '{"index":"retail","itemsets":[[1,2],[3]],"no_cache":true}'
call GET "$coord/v1/fleetz"
call GET "$coord/v1/traces"
call GET "$coord/metrics?exemplars=1"
# A worker goes down: retries run out, the breaker trips, then rejects.
stop "${workers[1]%%:*}"
for _ in $(seq 7); do
	answers 503 "$coord/v1/ubsup" '{"index":"retail","itemsets":[[1,2]],"no_cache":true}'
done
sleep 1.1 # past the breaker's cooldown: one half-open probe, which fails
answers 503 "$coord/v1/ubsup" '{"index":"retail","itemsets":[[1,2]],"no_cache":true}'
call GET "$coord/v1/fleetz"
stop "$coordPID"
stop "${workers[0]%%:*}"

# A durable ingest server; small thresholds force snapshots and compactions.
serve ingest -ingest "live=$work/wal" -ingest-items 64 -ingest-snapshot-every 4 -ingest-compact-every 3
ingestPID=$pid
for i in $(seq 12); do
	call POST "$url/v1/ingest" "{\"batch\":[[1,2,$((i % 60 + 3))],[4,5],[2,$i]]}"
done
call POST "$url/v1/ingest" '{"tx":[7,9]}'
call POST "$url/v1/ubsup" '{"index":"live","itemset":[1,2]}'
call GET "$url/v1/fleetz"
answers 400 "$url/v1/ingest" '{"tx":[64]}'
stop "$ingestPID"
serve ingest-recover -ingest "live=$work/wal" -ingest-items 64
call POST "$url/v1/ubsup" '{"index":"live","itemsets":[[1,2],[4,5]]}'
stop "$pid"

step "$bin/ossm-bench" -tx 1200 -items 100 -pages 40 -support 0.02 -bubble 30 -bubble-support 0.005 \
	-segments 8 -mid 20 -sweep 10,20 all
for ex in quickstart retail alarms explore stream; do
	step "$bin/$ex"
done

for w in mine-count mine-prune serve-fleet serve-ingest; do
	for tr in 0 1; do
		step "$bin/perfbench" --workload "$w" --seconds 1 --warmup 200ms --setups 1 --trace "$tr" \
			--serve-bin "$bin/ossm-serve" --work-dir "$work/perfbench"
		tail -n 1 "$work/log" | grep -q '"correct": *true' ||
			{ cat "$work/log" >&2; echo "prodcover: perfbench $w answered wrongly" >&2; exit 1; }
	done
done

echo "prodcover: root package tests"
go test -count=1 -cover -coverpkg="$module/..." . -args -test.gocoverdir="$cov" >"$work/log" 2>&1 ||
	{ cat "$work/log" >&2; exit 1; }

go tool covdata func -i="$cov" >"$work/func"
grep -v -e "^$module/perfbench/" -e "^$module/internal/oracle/" "$work/func" |
	awk '$NF == "0.0%" { print }' >"$work/zero" || true
echo
echo "prodcover: $(wc -l <"$work/zero") functions no binary and no root-package test reaches:"
sed "s|^$module/||" "$work/zero"
echo "prodcover: $(grep '^total' "$work/func")"
