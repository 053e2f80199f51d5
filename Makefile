# Tier-1 verification gate (see ROADMAP.md). `make verify` is what CI and
# pre-merge checks run; every target also works standalone.

GO ?= go

.PHONY: verify fmt vet build test race benchsmoke fuzz-smoke protosmith-smoke bench bench-frontier loadtest cluster-smoke bench-cluster convrt-smoke bench-convrt

verify: fmt vet build test race benchsmoke fuzz-smoke protosmith-smoke loadtest cluster-smoke convrt-smoke
	@echo "verify: OK"

# gofmt compliance; fails listing the offending files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every derivation-engine and prune benchmark: catches
# bit-rot in the bench harness and smoke-tests the parallel engine and the
# compiled prune check under -benchtime=1x.
benchsmoke:
	$(GO) test -run '^$$' -bench 'Derive|Prune' -benchtime 1x .

# Full engine benchmarks with allocation figures, then the quotbench JSON
# trajectory into BENCH_pr4.json: both pipelines over the families the
# eager engine can still finish, then the big instances (chain(7), ring(5),
# chaindrop(6)) under the lazy engine alone, with a per-derivation cap so a
# regression shows up as timed_out=true instead of a hung build.
# BENCH_pr3.json is the frozen PR3 baseline — never appended to.
# EXPERIMENTS.md explains how to read both files.
bench:
	$(GO) test -run '^$$' -bench 'Derive|Compose' -benchmem .
	$(GO) run ./cmd/quotbench -label pr4 \
		-families 'chain(4),chain(5),chain(6),chaindrop(4),chaindrop(5),ring(2),ring(3)' \
		-engine spec,lazy -workers 1,2 -reps 6 -derivetimeout 60s \
		-out BENCH_pr4.json
	$(GO) run ./cmd/quotbench -label pr4 \
		-families 'chain(7),chaindrop(6),ring(4),ring(5)' \
		-engine lazy -workers 1,2 -reps 6 -derivetimeout 30s \
		-append -out BENCH_pr4.json

# The million-state frontier trajectory into BENCH_pr8.json: the new
# BenchFamilies tail (chain(8), chaindrop(7), ring(6)) under the lazy
# engine, then chain(9) — a ~1M-state product — and chain(10). Hard per-
# derivation caps keep a regression visible as timed_out=true instead of a
# hung build. EXPERIMENTS.md reads this file.
bench-frontier:
	rm -f BENCH_pr9.json
	$(GO) run ./cmd/quotbench -label pr9 \
		-families 'chain(8),chaindrop(7),ring(6)' \
		-engine lazy -workers 1,2 -reps 3 -derivetimeout 60s \
		-out BENCH_pr9.json
	$(GO) run ./cmd/quotbench -label pr9 \
		-families 'chain(9)' \
		-engine lazy -workers 1,2 -reps 2 -derivetimeout 120s \
		-append -out BENCH_pr9.json
	$(GO) run ./cmd/quotbench -label pr9 \
		-families 'chain(10)' \
		-engine lazy -workers 1 -reps 1 -derivetimeout 600s \
		-append -out BENCH_pr9.json

# Concurrent load against an in-process quotd: N clients × rounds over
# specgen families. Fails on any non-200, a zero cache-hit ratio on repeat
# rounds, key instability, or more engine runs than distinct derivations
# (singleflight + cache must absorb everything else). Prints the
# warm-vs-cold latency table EXPERIMENTS.md reports.
loadtest:
	$(GO) run ./cmd/quotload -clients 8 -rounds 3 \
		-families 'chain(3),chain(4),chaindrop(4)'

# The sharded-cluster gate: three in-process quotd shards on one ring, a
# Zipf-skewed keyspace, and one shard killed mid-round and restarted before
# the final round. quotload exits non-zero on any failed request (the
# failover client must hide the kill), a zero warm-hit ratio, key
# instability, or more engine runs cluster-wide than the shard-loss bound
# allows (one per distinct key while the ring is stable).
cluster-smoke:
	$(GO) run ./cmd/quotload -clients 12 -rounds 3 -cluster 3 \
		-variants 6 -dist zipf -kill \
		-families 'chain(3),chaindrop(3)'

# The BENCH_pr6.json trajectory: the same skewed load at 1, 2, and 3 nodes,
# recording client-observed warm/cold medians, hit ratio, and cluster-wide
# dedup counters per node count (EXPERIMENTS.md reads this file).
bench-cluster:
	rm -f BENCH_pr6.json
	for n in 1 2 3; do \
		$(GO) run ./cmd/quotload -clients 12 -rounds 3 -cluster $$n \
			-variants 6 -dist zipf -seed 7 \
			-families 'chain(3),chain(4),chaindrop(4)' \
			-bench-out BENCH_pr6.json -bench-label pr6-n$$n || exit 1; \
	done

# The execution-runtime gate: 1000 concurrent converter sessions through
# the table-compiled runtime under a seeded fault schedule, with online
# conformance checking against the monitor determinized from the
# converter's specification. -assert-clean exits non-zero unless every
# session completes with zero conformance violations and zero lost
# sessions.
convrt-smoke:
	$(GO) run ./cmd/convrt -sessions 1000 -steps 300 -seed 1 \
		-faults 'loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02' \
		-assert-clean

# The execution-runtime trajectory into BENCH_pr10.json: throughput and
# step-latency quantiles for the paper converter and a derived chain(2)
# converter, on a perfect wire and under the smoke-test fault schedule
# (EXPERIMENTS.md reads this file).
bench-convrt:
	rm -f BENCH_pr10.json
	$(GO) run ./cmd/convrt -sessions 2000 -steps 500 -seed 1 \
		-bench-out BENCH_pr10.json -label pr10-paper-clean
	$(GO) run ./cmd/convrt -sessions 2000 -steps 500 -seed 1 \
		-faults 'loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02' \
		-bench-out BENCH_pr10.json -label pr10-paper-faults
	$(GO) run ./cmd/convrt -family 'chain(2)' -sessions 2000 -steps 500 -seed 1 \
		-bench-out BENCH_pr10.json -label pr10-chain2-clean
	$(GO) run ./cmd/convrt -family 'chain(2)' -sessions 2000 -steps 500 -seed 1 \
		-faults 'loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02' \
		-bench-out BENCH_pr10.json -label pr10-chain2-faults
	$(GO) run ./cmd/convrt -sessions 2000 -steps 500 -seed 1 -no-conform \
		-bench-out BENCH_pr10.json -label pr10-paper-noconform

# Short fuzzing bursts over the wire decoder, the DSL parser, the
# canonical-form hasher, the compiled-table decoder, and quotd's derive
# request decoder: enough to catch regressions in frame bounds-checking,
# grammar handling, hash stability, table-header bounds, and typed request
# rejection without slowing the gate down. Longer campaigns: raise
# -fuzztime manually.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 5s ./internal/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/dsl
	$(GO) test -run '^$$' -fuzz '^FuzzJSON$$' -fuzztime 5s ./internal/dsl
	$(GO) test -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime 5s ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime 5s ./internal/convrt
	$(GO) test -run '^$$' -fuzz '^FuzzDeriveRequest$$' -fuzztime 5s ./internal/server

# The randomized differential gate: a fixed-seed protosmith campaign across
# both engine pipelines at workers 1, 2, and 4, cross-checked against
# the sat checker, the raw-edge oracles, the baseline candidate probes, and
# the prune leg (the pruned converter re-checked by Verify, trace inclusion
# in the derived one, and the raw-edge progress oracle).
# Fails (exit 2) on any divergence or malformed generated system; -shrink
# reduces a failure to a minimal reproducer committed under
# testdata/protosmith/.
protosmith-smoke:
	$(GO) run ./cmd/protosmith -seed 1 -count 250 -shrink \
		-emit-fixture testdata/protosmith
