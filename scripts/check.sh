#!/bin/sh
# Pre-PR gate: formatting, module hygiene, vet, the vmlint static
# analyzers, build, full tests under the race detector (which also
# exercises the steady-state allocation guards in internal/hypercube
# and internal/core). Run from the repository root:
#
#	./scripts/check.sh
#
# Simulated results are deterministic, so any table change this script
# surfaces is a real behavioral change, not noise.
#
# Set CHECK_ARTIFACT_DIR to keep the produced artifacts (profile and
# trace JSON, the demo post-mortem, metrics, the fresh benchmark
# snapshot) instead of discarding them — CI uses this to upload them
# on failure.
set -eu

cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

# The module is dependency-free and must stay that way: tidy may not
# want to change go.mod.
if ! go mod tidy -diff >/dev/null 2>&1; then
	echo "go mod tidy would change go.mod/go.sum; run it and commit" >&2
	go mod tidy -diff >&2 || true
	exit 1
fi

go vet ./...
go build ./...

# Static allocation gate: the compiler's escape analysis must not
# report new heap escapes in the hot-path packages (hypercube,
# collective, core, flightrec, router) relative to the committed
# baseline.
# The dynamic AllocsPerRun guards only see the paths the benchmarks
# drive; this sees every function the compiler does.
./scripts/allocgate.sh

# vmlint: the repo's own analyzers (SPMD protocol agreement, span
# balance, buffer ownership, determinism, host concurrency). Build the tool once, then lint
# before spending time on tests — a lint finding is file:line:col
# actionable, a deadlocked test run is a 30s watchdog timeout.
vmlint_bin=$(mktemp)
go build -o "$vmlint_bin" ./cmd/vmlint
"$vmlint_bin" ./... || { rm -f "$vmlint_bin"; echo "vmlint failed" >&2; exit 1; }
# -diff must print nothing: a pending suggested fix is uncommitted
# mechanical work — run vmlint -fix and commit the result.
fixes=$("$vmlint_bin" -diff ./...) || { rm -f "$vmlint_bin"; echo "vmlint -diff failed" >&2; exit 1; }
if [ -n "$fixes" ]; then
	echo "vmlint -diff: pending suggested fixes; run vmlint -fix and commit:" >&2
	echo "$fixes" >&2
	rm -f "$vmlint_bin"
	exit 1
fi
# The same suite through the go vet driver: exercises the -vettool
# unit-checker protocol, with package facts (identity taint, buffer
# sinks, collective summaries) crossing packages through vetx files.
go vet -vettool="$vmlint_bin" ./... || { rm -f "$vmlint_bin"; echo "vmlint (vettool) failed" >&2; exit 1; }
rm -f "$vmlint_bin"

go test ./...
# Full internal tree under the race detector. This includes the
# GOMAXPROCS determinism stress (internal/bench TestGOMAXPROCSDeterminism
# plus the collective and router variants): the same E1–E5 workloads at
# GOMAXPROCS 1, 2 and NumCPU must produce bit-identical clocks, link
# loads, metrics folds and profile documents, with the race detector
# watching the host-parallel engine the whole time.
go test -race ./internal/...
# The profiler invariant tests (bit-identity, bucket reconciliation)
# under the race detector: the span recorder runs on every processor
# goroutine, so races here would be real simulator bugs.
go test -race -run 'Profile|Span|Congestion|LinkVolumes' ./internal/hypercube/ ./internal/obs/
# Host-concurrency race gate: the serving plane (SSE broadcaster,
# run registry, worker pool), the metrics registry and the vmload
# harness are the packages the hostconc analyzers police statically;
# this runs their goroutine-dense tests — including the SSE
# subscribe/unsubscribe churn — with the race detector watching the
# same code dynamically. (./internal/... above already covers serve
# and metrics; this line pins the contract and adds cmd/vmload.)
go test -race ./internal/serve/ ./internal/metrics/ ./cmd/vmload/

# End-to-end profiled run: the JSON profile on stdout must parse, and
# the Chrome trace written next to it must parse, or the exporters
# regressed.
if [ -n "${CHECK_ARTIFACT_DIR:-}" ]; then
	mkdir -p "$CHECK_ARTIFACT_DIR"
	tmpdir=$CHECK_ARTIFACT_DIR
else
	tmpdir=$(mktemp -d)
	trap 'rm -rf "$tmpdir"' EXIT
fi
go run ./cmd/vmprim -profile E1 -json -trace-out "$tmpdir/trace.json" >"$tmpdir/profile.json"
python3 - "$tmpdir/profile.json" "$tmpdir/trace.json" <<'PYEOF'
import json, sys
prof = json.load(open(sys.argv[1]))
root = prof["spans"]
assert prof["p"] > 0 and root["name"] == "run" and root.get("children"), \
    "profile JSON missing span tree"
assert prof["bucket_skew_us"] == 0, "bucket reconciliation skew nonzero"
trace = json.load(open(sys.argv[2]))
assert trace["traceEvents"], "Chrome trace empty"
print("profiled run: %d procs, %d top-level spans, %d trace events" %
      (prof["p"], len(root["children"]), len(trace["traceEvents"])))
PYEOF

# End-to-end post-mortem: a deliberately deadlocked run must produce a
# structured report that names every processor's blocked receive, and
# the metrics snapshot must record the failed run. The command itself
# exits nonzero unless the report shows all procs blocked.
go run ./cmd/vmprim -demo-deadlock -recv-timeout 300ms \
	-postmortem-out "$tmpdir/postmortem.json" \
	-metrics-out "$tmpdir/metrics.prom" >"$tmpdir/postmortem.txt"
python3 - "$tmpdir/postmortem.json" <<'PYEOF'
import json, sys
rep = json.load(open(sys.argv[1]))
assert rep["blocked"] == rep["p"] == 4, "not every proc blocked: %s" % rep
for ps in rep["procs"]:
    assert ps["wait"] == "recv" and ps["wait_dim"] >= 0, \
        "proc %d not blocked in recv" % ps["id"]
    vts = [ev["vt_us"] for ev in ps["events"]]
    assert vts == sorted(vts), "flight events out of VT order"
assert len(rep["links"]) == 4, "expected 4 occupied links"
print("post-mortem: %d/%d procs blocked, %d occupied links" %
      (rep["blocked"], rep["p"], len(rep["links"])))
PYEOF
grep -q '^vmprim_run_failures_total 1$' "$tmpdir/metrics.prom" || {
	echo "metrics.prom did not record the failed run" >&2
	exit 1
}

# Critical-path gate. The tracer's output is part of the simulated
# result, not a host-side diagnostic, so the same workload must
# produce bit-identical critical-path JSON at GOMAXPROCS 1 and the
# default (NumCPU). The document must also match the committed golden
# schema — downstream tooling parses these files.
GOMAXPROCS=1 go run ./cmd/vmprim -critpath E4 \
	-critpath-out "$tmpdir/critpath-gmp1.json" >/dev/null 2>&1
go run ./cmd/vmprim -critpath E4 \
	-critpath-out "$tmpdir/critpath-ncpu.json" >"$tmpdir/critpath.txt" 2>/dev/null
cmp "$tmpdir/critpath-gmp1.json" "$tmpdir/critpath-ncpu.json" || {
	echo "critical path differs between GOMAXPROCS 1 and NumCPU" >&2
	exit 1
}
python3 scripts/critpath_schema_check.py "$tmpdir/critpath-ncpu.json" scripts/critpath_schema.json

# Continuous-benchmark gate, now a GOMAXPROCS sweep: a fresh
# 1-iteration host run at GOMAXPROCS 1, 2, 4 and NumCPU must reproduce
# the committed snapshot's simulated times bit for bit at EVERY
# setting (-each-new-section diffs each sweep section against the
# gate). Host ns/op at -benchtime 1x is pure noise and stays
# informational (benchdiff gates it only under -gate-host).
go run ./cmd/hostbench -d 4 -n 64 -benchtime 1x -sweep 1,2,4,ncpu \
	-o "$tmpdir/bench-fresh.json" 2>/dev/null
go run ./cmd/benchdiff -old BENCH_2.json:gate -new "$tmpdir/bench-fresh.json" \
	-each-new-section

# Committed sweep gate: BENCH_3.json's [d4-|d8-]gomaxprocs-N sections
# must agree on simulated times within each group, and host ns/op at
# GOMAXPROCS=NumCPU (of the recording host) must not regress beyond
# 20% versus GOMAXPROCS=1 — parallelism must never be a slowdown.
go run ./cmd/benchdiff -sweep BENCH_3.json

# vmprimd smoke gate: the served observability plane must hand out the
# SAME simulated documents the CLI writes. Start the server, submit the
# E1 profile workload over HTTP, and byte-compare the served profile,
# Chrome trace and critical-path JSON against a direct `vmprim
# -profile E1` run — once with the server and CLI at GOMAXPROCS=1 and
# once at the host default — then validate the served critpath against
# the committed schema, check the per-run metrics match modulo the
# host-nondeterministic scheduler counters, drive a vmload mini-burst,
# and require a clean SIGTERM shutdown.
go build -o "$tmpdir/vmprimd" ./cmd/vmprimd
go build -o "$tmpdir/vmprim-cli" ./cmd/vmprim
go build -o "$tmpdir/vmload" ./cmd/vmload

vmprimd_pass() { # $1: pass name; $2: GOMAXPROCS value ("" = host default)
	pass=$1
	gmp=${2:-}
	pdir="$tmpdir/vmprimd-$pass"
	mkdir -p "$pdir"
	rm -f "$pdir/addr"
	GOMAXPROCS=$gmp "$tmpdir/vmprimd" -addr 127.0.0.1:0 -addr-file "$pdir/addr" \
		-workers 1 2>"$pdir/server.log" &
	srv_pid=$!
	for _ in $(seq 100); do
		[ -s "$pdir/addr" ] && break
		sleep 0.1
	done
	addr=$(cat "$pdir/addr")
	run_id=$(curl -sf -X POST "http://$addr/runs" -d '{"exp":"E1"}' \
		| python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
	state=$(curl -sf "http://$addr/runs/$run_id/wait?timeout=300s" \
		| python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
	[ "$state" = "done" ] || { echo "vmprimd($pass): run ended $state" >&2; exit 1; }
	curl -sf "http://$addr/runs/$run_id/profile" >"$pdir/profile.json"
	curl -sf "http://$addr/runs/$run_id/trace" >"$pdir/trace.json"
	curl -sf "http://$addr/runs/$run_id/critpath" >"$pdir/critpath.json"
	curl -sf "http://$addr/runs/$run_id/metrics" >"$pdir/metrics.json"
	curl -sfi "http://$addr/metrics" >"$pdir/scrape.txt"
	grep -qi '^content-type: text/plain; version=0.0.4' "$pdir/scrape.txt" || {
		echo "vmprimd($pass): /metrics Content-Type is not the 0.0.4 exposition" >&2
		exit 1
	}
	grep -q '^vmprimd_runs_done_total 1$' "$pdir/scrape.txt" || {
		echo "vmprimd($pass): scrape did not count the finished run" >&2
		exit 1
	}

	GOMAXPROCS=$gmp "$tmpdir/vmprim-cli" -profile E1 -json \
		-trace-out "$pdir/cli-trace.json" -critpath-out "$pdir/cli-critpath.json" \
		-metrics-out "$pdir/cli-metrics.json" >"$pdir/cli-profile.json" 2>/dev/null
	for artifact in profile trace critpath; do
		cmp "$pdir/$artifact.json" "$pdir/cli-$artifact.json" || {
			echo "vmprimd($pass): served $artifact differs from the CLI document" >&2
			exit 1
		}
	done
	python3 scripts/critpath_schema_check.py "$pdir/critpath.json" scripts/critpath_schema.json
	python3 - "$pdir/metrics.json" "$pdir/cli-metrics.json" <<'PYEOF'
import json, sys
# Host-scheduler and watchdog counters depend on goroutine interleaving
# by design; everything else in the per-run metrics is simulated truth
# and must match the CLI's fresh-machine snapshot exactly.
sched = {
    "vmprim_sched_recv_parks_total", "vmprim_sched_send_stalls_total",
    "vmprim_sched_wakeups_total", "vmprim_sched_max_parked_procs",
    "vmprim_watchdog_arms_total", "vmprim_watchdog_rearms_total",
}
def load(p):
    doc = json.load(open(p))
    return {m["name"]: m for m in doc["metrics"] if m["name"] not in sched}
served, cli = load(sys.argv[1]), load(sys.argv[2])
assert served.keys() == cli.keys(), \
    "metric sets differ: %s" % sorted(served.keys() ^ cli.keys())
for name in served:
    assert served[name] == cli[name], \
        "metric %s: served %r != cli %r" % (name, served[name], cli[name])
print("served per-run metrics: %d metrics identical to the CLI snapshot" % len(served))
PYEOF

	kill -TERM "$srv_pid"
	wait "$srv_pid" || { echo "vmprimd($pass): nonzero exit on SIGTERM" >&2; exit 1; }
	grep -q 'clean shutdown' "$pdir/server.log" || {
		echo "vmprimd($pass): no clean shutdown line in server log" >&2
		exit 1
	}
	echo "vmprimd($pass): served E1 artifacts byte-identical to CLI; clean shutdown"
}

vmprimd_pass gmp1 1
vmprimd_pass ncpu ""
cmp "$tmpdir/vmprimd-gmp1/profile.json" "$tmpdir/vmprimd-ncpu/profile.json" || {
	echo "served profile differs between GOMAXPROCS 1 and NumCPU" >&2
	exit 1
}

# vmload mini-burst: concurrent submissions against an in-process
# server must all complete. The committed BENCH_4.json records the
# full 1000-run session; this keeps the harness itself gated.
"$tmpdir/vmload" -runs 60 -c 8 -out "$tmpdir/bench4-smoke.json" 2>/dev/null
python3 - "$tmpdir/bench4-smoke.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
res = doc["results"]
assert res["completed"] == 60 and res["failed"] == 0, \
    "vmload smoke: %d/%d completed" % (res["completed"], 60)
lat = res["latency_us"]
assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"], "percentiles not ordered: %s" % lat
assert sum(res["histogram_counts"][-1:]) == 60, "histogram +Inf bucket != count"
print("vmload smoke: 60/60 runs, p50 %.0fus p95 %.0fus p99 %.0fus" %
      (lat["p50"], lat["p95"], lat["p99"]))
PYEOF

echo "check.sh: all clean"
