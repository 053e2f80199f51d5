# Tier-1 verification gate (see ROADMAP.md). `make verify` is what CI and
# pre-merge checks run; every target also works standalone.

GO ?= go

.PHONY: verify fmt vet build test race benchsmoke fuzz-smoke protosmith-smoke bench-record loadtest cluster-smoke convrt-smoke

verify: fmt vet build test race benchsmoke fuzz-smoke protosmith-smoke loadtest cluster-smoke convrt-smoke
	@echo "verify: OK"

# gofmt compliance; fails listing the offending files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The bench harness is a separate module, so ./... does not reach it.
build:
	$(GO) build ./...
	cd bench && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration of every derivation-engine and prune benchmark: catches
# bit-rot in the bench harness and smoke-tests the parallel engine and the
# compiled prune check under -benchtime=1x.
benchsmoke:
	$(GO) test -run '^$$' -bench 'Derive|Prune' -benchtime 1x .

# The benchmark record for a change: every workload of bench/run.sh at its
# default -seconds, seeds 1, 2 and 3 untraced and seed 1 traced, appended
# as JSONL records (machine header and calibration on every line) to a
# fresh BENCH_$(LABEL).json in the repository root, then read back with
# -compare. Needs LABEL (make bench-record LABEL=prN); takes several
# minutes, so it is not part of verify. EXPERIMENTS.md reads the files.
bench-record:
	@if [ -z "$(LABEL)" ]; then echo "bench-record: set LABEL, e.g. make bench-record LABEL=prN"; exit 2; fi
	rm -f BENCH_$(LABEL).json
	bash bench/run.sh -seed 1 -out BENCH_$(LABEL).json
	bash bench/run.sh -seed 2 -out BENCH_$(LABEL).json
	bash bench/run.sh -seed 3 -out BENCH_$(LABEL).json
	bash bench/run.sh -seed 1 -trace 1 -out BENCH_$(LABEL).json
	bash bench/run.sh -compare BENCH_$(LABEL).json BENCH_$(LABEL).json

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

# The execution-runtime gate: 1000 concurrent converter sessions through
# the table-compiled runtime under a seeded fault schedule, with online
# conformance checking against the monitor determinized from the
# converter's specification. -assert-clean exits non-zero unless every
# session completes with zero conformance violations and zero lost
# sessions. The second fleet runs two workers, so each publishes its
# tallies to the merged report, under burst losses and delay, which takes
# the delayed-delivery wake path.
convrt-smoke:
	$(GO) run ./cmd/convrt -sessions 1000 -steps 300 -seed 1 \
		-faults 'loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02' \
		-assert-clean
	$(GO) run ./cmd/convrt -sessions 1000 -steps 300 -seed 2 -workers 2 \
		-faults 'loss=0.05,dup=0.05,reorder=0.05,corrupt=0.02,burst=3,delay=5us' \
		-assert-clean

# Short fuzzing bursts over the DSL parser, the canonical-form hasher,
# FromDense against a map-based reference, the compiled-table decoder, and
# quotd's derive request and peer-fill decoders: enough to catch
# regressions in grammar handling, hash stability, spec freezing,
# table-header bounds, typed request rejection, and peer answers keyed as
# /v1/derive keys them, without slowing the gate down. Longer campaigns:
# raise -fuzztime manually.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 5s ./internal/dsl
	$(GO) test -run '^$$' -fuzz '^FuzzJSON$$' -fuzztime 5s ./internal/dsl
	$(GO) test -run '^$$' -fuzz '^FuzzCanonical$$' -fuzztime 5s ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzFromDense$$' -fuzztime 5s ./internal/spec
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTable$$' -fuzztime 5s ./internal/convrt
	$(GO) test -run '^$$' -fuzz '^FuzzDeriveRequest$$' -fuzztime 5s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzPeerFill$$' -fuzztime 5s ./internal/server

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
