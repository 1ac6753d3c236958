GO ?= go

.PHONY: all build fmt vet test race bench bench-json perfbench-test nopanic cli-smoke grid-smoke telemetry-smoke verify

all: verify

build:
	$(GO) build ./...

# fmt fails, listing the files, when any Go file is not gofmt-clean.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo 'not gofmt-clean:'; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The grid runner and the experiment harness are the concurrent code in
# the repository: they run whole cells on a worker pool, and no goroutine
# starts inside a cell. -short keeps the race pass CI-sized while still
# exercising every RunGrid path (the determinism tests run multi-worker
# grids even in short mode). The crash-sweep tests run their cells in
# parallel, so the fault plane rides along; the probe plane and the nvm
# MSHR file are per-machine state, so their tests ride too, as does the
# sim test that runs mlp=on cells concurrently. The script cache both
# pools share lives in internal/workload, with its concurrent-Get test.
race:
	$(GO) test -race -short ./internal/sim/... ./internal/experiments/... ./internal/faultinject/... ./internal/probe/... ./internal/nvm/... ./internal/grid/... ./internal/metrics/... ./internal/workload/...

# No panic() may be reachable from the public Machine/Controller API:
# internal-invariant failures surface as typed errors through Run.
nopanic:
	@! grep -rn --include='*.go' --exclude='*_test.go' 'panic(' internal lelantus.go \
	    || (echo 'panic() reachable from the public API'; exit 1)

# CLI smoke: real lelantus-sim runs through the surfaces unit tests do not
# reach — a forkbench trace through the probe plane validated with the
# built-in Chrome trace-event schema checker, the MSHR-overlapped engine,
# the prefetchers with the probe plane reporting coverage, and a recorded
# script replayed — plus one lelantus-trace footprint render. The tests
# behind these features (crash sweep, persistence matrix, probe, MLP and
# prefetch pins) run under `test`, and the concurrent grid tests under
# `race`.
cli-smoke:
	$(GO) run ./cmd/lelantus-sim -workload forkbench -fidelity timing \
	    -probe -probe-format=perfetto -probe-out /tmp/lelantus-probe-smoke.json >/dev/null
	$(GO) run ./cmd/lelantus-sim -probe-check /tmp/lelantus-probe-smoke.json
	@rm -f /tmp/lelantus-probe-smoke.json
	$(GO) run ./cmd/lelantus-sim -workload forkbench -fidelity timing -mlp=on >/dev/null
	$(GO) run ./cmd/lelantus-sim -workload forkbench -fidelity timing -mlp=on -prefetch=both \
	    -probe -probe-out /tmp/lelantus-prefetch-smoke.json
	@rm -f /tmp/lelantus-prefetch-smoke.json
	$(GO) run ./cmd/lelantus-sim -workload forkbench -record /tmp/lelantus-smoke.lt >/dev/null
	$(GO) run ./cmd/lelantus-sim -replay /tmp/lelantus-smoke.lt -fidelity timing >/dev/null
	@rm -f /tmp/lelantus-smoke.lt
	$(GO) run ./cmd/lelantus-trace -pages 2 >/dev/null

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# bench-json captures the hot-path and end-to-end benchmarks as a JSON
# baseline: the ReadLine/WriteLine micro-benchmarks, the cache
# hierarchy's per-layer ones and the full-size script generators'
# (BenchmarkBuild/<app>), with allocation counts, at a fixed benchtime,
# plus every Fig9 quick cell and the PagePhyc, OverflowSweep,
# RecoveryScrub and ChainHeavy cells at two iterations (each
# iteration is one full deterministic simulation, so two are enough for a
# stable ns/op). KNOBS is the machine in sim.Knobs's text form, read by
# bench_test.go from LELANTUS_KNOBS; OUT is the file written. Benchmark
# names do not depend on KNOBS, so `go run ./cmd/benchjson -compare A B`
# lines any two files up cell by cell. The committed files regenerate with:
#
#   make bench-json                                                           # BENCH_hotpath.json
#   make bench-json KNOBS=fidelity=timing OUT=BENCH_timing.json
#   make bench-json KNOBS=fidelity=timing,mlp=on OUT=BENCH_mlp.json
#   make bench-json KNOBS=fidelity=timing,mlp=on,prefetch=both OUT=BENCH_prefetch.json
#
# -compare of hotpath vs timing prints the host speedup of the fidelity
# knob; `-compare -metric sim-ns` of timing vs mlp the simulated speedup
# the MLP model charges, and of mlp vs prefetch (with -filter ChainHeavy)
# the prefetch delta on the cells that overflow the counter cache.
# BENCH_seed.json holds the pre-optimization baseline.
KNOBS ?=
OUT ?= BENCH_hotpath.json
bench-json:
	{ LELANTUS_KNOBS='$(KNOBS)' $(GO) test -run '^$$' \
	      -bench '^(BenchmarkReadLine|BenchmarkWriteLine|BenchmarkCache.*|BenchmarkBuild)$$' \
	      -benchmem -benchtime 0.2s . ./internal/cache ./internal/workload ; \
	  LELANTUS_KNOBS='$(KNOBS)' $(GO) test -run '^$$' \
	      -bench '^(BenchmarkFig9|BenchmarkPagePhyc|BenchmarkOverflowSweep|BenchmarkRecoveryScrub|BenchmarkChainHeavy)$$' -benchtime 2x . ; } \
	  | $(GO) run ./cmd/benchjson > $(OUT)

# perfbench-test runs the end-to-end benchmark's own unit tests (it is a
# separate module, so `go test ./...` at the root does not reach it).
perfbench-test:
	cd perfbench && $(GO) test .

# Grid smoke: the worker pool (sim.ForEach) and coordinator unit tests, the
# results-log decoder pins, the subprocess kill/resume harness (SIGKILL at
# a seeded checkpoint boundary, resume, byte-compare the merged report),
# and a real CLI run/status/resume cycle on a sub-second grid.
grid-smoke:
	$(GO) test -count=1 -run ForEach ./internal/sim
	$(GO) test -count=1 ./internal/grid
	@rm -rf /tmp/lelantus-grid-smoke
	$(GO) run ./cmd/lelantus-grid run -dir /tmp/lelantus-grid-smoke \
	    -workloads forkbench -schemes lelantus,baseline -region-kb 256 -strict -quiet
	$(GO) run ./cmd/lelantus-grid status -dir /tmp/lelantus-grid-smoke
	$(GO) run ./cmd/lelantus-grid resume -dir /tmp/lelantus-grid-smoke -strict -quiet
	@rm -rf /tmp/lelantus-grid-smoke

# Telemetry smoke: the metrics-registry unit tests (zero-alloc disabled
# path, percentile math, exposition round-trips), the grid telemetry
# harness tests (mid-run scrape, heartbeat, tail percentiles, profiles,
# report byte-identity with telemetry on), then a real CLI run serving
# live telemetry on an ephemeral port: the announced /metrics endpoint is
# scraped mid-run with curl and the scrape is validated with the built-in
# exposition checker (`lelantus-grid promcheck`); the final heartbeat
# must have marked telemetry.json finished, and `status` must render it.
# The grid (eight full-size forkbench cells, a few seconds) must outlast
# the announce-poll-scrape sequence; the four-cell quick preset finishes
# in about 0.1 s and closes the endpoint before curl connects.
telemetry-smoke:
	$(GO) test -count=1 ./internal/metrics
	$(GO) test -count=1 ./internal/grid -run 'Telemetry|Tail|Profile|PromCheck'
	@rm -rf /tmp/lelantus-telemetry-smoke
	$(GO) build -o /tmp/lelantus-telemetry-smoke-bin ./cmd/lelantus-grid
	@set -e; \
	/tmp/lelantus-telemetry-smoke-bin run -dir /tmp/lelantus-telemetry-smoke \
	    -workloads forkbench -seeds 1,2 -tail -telemetry-addr 127.0.0.1:0 \
	    -heartbeat 250ms -strict -quiet 2> /tmp/lelantus-telemetry-smoke.err & \
	pid=$$!; url=; \
	for i in $$(seq 1 100); do \
	    url=$$(sed -n 's#^lelantus-grid: telemetry on \(http://[^ ]*/metrics\).*#\1#p' /tmp/lelantus-telemetry-smoke.err); \
	    [ -n "$$url" ] && break; sleep 0.1; \
	done; \
	[ -n "$$url" ] || { echo 'telemetry-smoke: telemetry endpoint never announced'; cat /tmp/lelantus-telemetry-smoke.err; kill $$pid 2>/dev/null; exit 1; }; \
	curl -fsS "$$url" > /tmp/lelantus-telemetry-smoke.prom \
	    || { echo "telemetry-smoke: mid-run scrape of $$url failed"; kill $$pid 2>/dev/null; exit 1; }; \
	wait $$pid
	/tmp/lelantus-telemetry-smoke-bin promcheck /tmp/lelantus-telemetry-smoke.prom
	@grep -q '"running":false' /tmp/lelantus-telemetry-smoke/telemetry.json \
	    || (echo 'telemetry-smoke: final heartbeat did not mark telemetry.json finished'; exit 1)
	/tmp/lelantus-telemetry-smoke-bin status -dir /tmp/lelantus-telemetry-smoke
	@rm -rf /tmp/lelantus-telemetry-smoke /tmp/lelantus-telemetry-smoke.err \
	    /tmp/lelantus-telemetry-smoke.prom /tmp/lelantus-telemetry-smoke-bin

verify: build fmt vet nopanic test perfbench-test race cli-smoke grid-smoke telemetry-smoke
