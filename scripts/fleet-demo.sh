#!/usr/bin/env bash
# fleet-demo runs real fedserver and fedclient processes on loopback for two
# rounds in each fleet shape the single-job server drives: flat workers
# (-devices 3), an aggregation tree of shard nodes (-tree-fanout 2
# -virtual-devices 6), leased workers (-job j -lease-epoch 1 on both
# sides), a leased tree, and leased workers running a chaos schedule. It
# fails unless every process exits 0 and the server prints its CSV. Two
# more fleets disagree with their server's flags — tree nodes that own 4
# of its 6 devices, and tree nodes facing a flat server — and there the
# server and every client must exit non-zero, the server naming the shape
# its peers said Hello as. The server listens on port 0 and prints the
# address it bound, which the clients dial, so no port is fixed.
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

# start NAME CLIENTS SERVER-FLAGS... -- CLIENT-FLAGS... launches fedserver
# and, once it listens, CLIENTS fedclient processes against it. It sets out
# (the path prefix of the logs), srv (the server's pid) and cl (the clients'
# pids). Every process runs under `timeout`, so a hang fails the demo.
start() {
	local name=$1 clients=$2
	shift 2
	local sflags=()
	while [ "$1" != "--" ]; do
		sflags+=("$1")
		shift
	done
	shift
	out=$dir/$name
	: >"$out.csv"
	timeout 60 "$dir/fedserver" -addr 127.0.0.1:0 -rounds 2 -tau 5 -batch 8 -seed 7 -timeout 30s \
		"${sflags[@]}" >"$out.csv" 2>"$out.err" &
	srv=$!
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
	cl=()
	for ((i = 0; i < clients; i++)); do
		timeout 60 "$dir/fedclient" -addr "$addr" -id "$i" -seed 7 "$@" >"$out.client$i" 2>&1 &
		cl+=("$!")
		pids+=("$!")
	done
}

# run NAME CLIENTS SERVER-FLAGS... -- CLIENT-FLAGS... fails unless the server
# and every client exit 0 and the server prints its CSV.
run() {
	local name=$1 fail=0
	start "$@" || return 1
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
	echo "fleet-demo $name: ${#cl[@]} clients and the server exited 0, $(grep -c '^[0-9]' "$out.csv") CSV rows"
}

# refuse NAME CLIENTS SERVER-FLAGS... -- CLIENT-FLAGS... runs a fleet whose
# shape disagrees with the server's flags: the server and every client must
# exit non-zero, and the server must say which shape its peers said Hello as.
refuse() {
	local name=$1 fail=0
	start "$@" || return 1
	for i in "${!cl[@]}"; do
		if wait "${cl[$i]}"; then
			echo "fleet-demo $name: fedclient $i exited 0 facing a server that refused its fleet"
			cat "$out.client$i"
			fail=1
		fi
	done
	if wait "$srv"; then
		echo "fleet-demo $name: fedserver exited 0 facing a fleet of the wrong shape"
		fail=1
	fi
	if ! grep -q 'said Hello as' "$out.err"; then
		echo "fleet-demo $name: fedserver did not name the peers' shape"
		cat "$out.err"
		fail=1
	fi
	if [ "$fail" = 1 ]; then return 1; fi
	echo "fleet-demo $name: refused — the server and ${#cl[@]} clients exited non-zero: $(tail -n 1 "$out.err")"
}

# A flake in round 1 (the server retries it) and a delayed reply in round 2.
cat >"$dir/chaos.json" <<'JSON'
{"seed": 7, "events": [
  {"device": 1, "round": 1, "kind": "flake"},
  {"device": 2, "round": 2, "kind": "delay", "delay_ms": 20}
]}
JSON

run flat 3 -devices 3 -- -devices 3
run tree 2 -tree-fanout 2 -virtual-devices 6 -- -tree-fanout 2 -virtual-devices 6
run leased 3 -devices 3 -job j -lease-epoch 1 -- -devices 3 -job j -lease-epoch 1
run leased-tree 2 -tree-fanout 2 -virtual-devices 6 -job j -lease-epoch 1 -- \
	-tree-fanout 2 -virtual-devices 6 -job j -lease-epoch 1
run leased-chaos 3 -devices 3 -job j -lease-epoch 1 -- -devices 3 -job j -lease-epoch 1 -chaos "$dir/chaos.json"
refuse tree-size 2 -tree-fanout 2 -virtual-devices 6 -- -tree-fanout 2 -virtual-devices 4
refuse flat-vs-tree 3 -devices 3 -- -tree-fanout 3 -virtual-devices 3
