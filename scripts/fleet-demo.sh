#!/usr/bin/env bash
# fleet-demo runs real fedserver and fedclient processes on loopback for two
# rounds in each fleet shape the single-job server drives: flat workers
# (-devices 3), an aggregation tree of shard nodes (-tree-fanout 2
# -virtual-devices 6) and leased workers (-job j -lease-epoch 1 on both
# sides). It fails unless every process exits 0 and the server prints its
# CSV. The server listens on port 0 and prints the address it bound, which
# the clients dial, so no port is fixed.
#
# Usage: scripts/fleet-demo.sh   (from the repository root; GO overrides go)
set -euo pipefail

GO=${GO:-go}
dir=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	rm -rf "$dir"
}
trap cleanup EXIT

"$GO" build -o "$dir/" ./cmd/fedserver ./cmd/fedclient

# run NAME CLIENTS SERVER-FLAGS... -- CLIENT-FLAGS...
run() {
	local name=$1 clients=$2
	shift 2
	local sflags=()
	while [ "$1" != "--" ]; do
		sflags+=("$1")
		shift
	done
	shift
	local out=$dir/$name
	"$dir/fedserver" -addr 127.0.0.1:0 -rounds 2 -tau 5 -batch 8 -seed 7 -timeout 30s \
		"${sflags[@]}" >"$out.csv" 2>"$out.err" &
	local srv=$!
	pids+=("$srv")
	local addr=""
	for ((t = 0; t < 200; t++)); do
		addr=$(sed -n 's/^fedserver: waiting for .* on \([^ ]*\) (.*/\1/p' "$out.csv")
		if [ -n "$addr" ] || ! kill -0 "$srv" 2>/dev/null; then break; fi
		sleep 0.05
	done
	if [ -z "$addr" ]; then
		echo "fleet-demo $name: fedserver did not start listening"
		cat "$out.err"
		return 1
	fi
	local cl=() fail=0
	for ((i = 0; i < clients; i++)); do
		"$dir/fedclient" -addr "$addr" -id "$i" -seed 7 "$@" >"$out.client$i" 2>&1 &
		cl+=("$!")
		pids+=("$!")
	done
	for i in "${!cl[@]}"; do
		if ! wait "${cl[$i]}"; then
			echo "fleet-demo $name: fedclient $i failed"
			cat "$out.client$i"
			fail=1
		fi
	done
	# A server whose clients died would wait for them forever.
	if [ "$fail" = 1 ]; then kill "$srv" 2>/dev/null || true; fi
	if ! wait "$srv"; then
		echo "fleet-demo $name: fedserver failed"
		cat "$out.err"
		fail=1
	fi
	if ! grep -q '^round,train_loss' "$out.csv"; then
		echo "fleet-demo $name: fedserver printed no CSV"
		fail=1
	fi
	if [ "$fail" = 1 ]; then return 1; fi
	echo "fleet-demo $name: $clients clients and the server exited 0, $(grep -c '^[0-9]' "$out.csv") CSV rows"
}

run flat 3 -devices 3 -- -devices 3
run tree 2 -tree-fanout 2 -virtual-devices 6 -- -tree-fanout 2 -virtual-devices 6
run leased 3 -devices 3 -job j -lease-epoch 1 -- -devices 3 -job j -lease-epoch 1
