# Developer entry points. `make check` is what CI runs.

GO ?= go

.PHONY: build test test-purego cross race vet mutate loc loc-gate bench bench-smoke bench-module bench-pairs check smoke fuzz crash-sim

build:
	$(GO) build ./...

# test: every test in the module, run once with statement coverage of
# the whole module (.bench/cover.out, listed per function in
# .bench/cover.txt). It then fails, naming each one, on any function that
# no test executes, outside the cmd/ and examples/ main packages that
# `make smoke` runs: library code nothing tests is given a test or deleted.
test:
	@mkdir -p .bench
	$(GO) test -coverpkg=./... -coverprofile=.bench/cover.out ./...
	@$(GO) tool cover -func=.bench/cover.out > .bench/cover.txt
	@awk '$$NF == "0.0%" && $$1 !~ /^mmt\/(cmd|examples)\// { print "make test: no test runs " $$1 " " $$2; n++ } \
		END { if (n) { print "make test: " n " untested function(s): test or delete them"; exit 1 } }' .bench/cover.txt

# test-purego: the packages on the MAC and pad path with the portable
# gf.Mulx (byte tables, mulx_generic.go) and the portable AES primitive
# (a loop over cipher.Block, crypt/aes_generic.go) in place of the amd64
# carry-less-multiply and AES-NI kernels, so the files every other platform
# compiles are tested on every push. The tag also switches the standard
# library's AES to its portable code, so this run is slow by design.
test-purego:
	$(GO) test -tags purego ./internal/gf ./internal/crypt ./internal/tree ./internal/engine ./internal/core .

# cross: both sides of the kernels' build split compile on every run —
# the module builds, and gf and crypt vet, for a platform that has no
# kernel, and the module builds for amd64 with the kernels tagged out. (On
# amd64 it is `vet` whose asmdecl pass checks mulx_amd64.s and aes_amd64.s
# against their Go declarations.)
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/gf ./internal/crypt
	GOARCH=amd64 $(GO) build -tags purego ./...

# First-class tier-1 target: the whole module under the race detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# mutate: plant faults in the library code — every security check forced
# to pass or dropped, and the faults the determinism rules name (a wall
# clock read, an unseeded generator, a panic on a decoder's reject, an
# unsorted map order, a clock shared by par work units, a computed event
# kind) — and fail on any that `go test` lets through and
# cmd/mmt-mutate/survivors.txt does not list with its reason. The whole
# module at the default tags, then under purego the packages test-purego
# runs (the portable kernels and their callers); outside `make check`, as
# it runs the tests once per mutant.
mutate:
	$(GO) run ./cmd/mmt-mutate ./...
	GOFLAGS=-tags=purego $(GO) run ./cmd/mmt-mutate ./internal/gf ./internal/crypt ./internal/tree ./internal/engine ./internal/core .

# loc: non-test Go lines per package directory and the module total —
# the table CHANGES.md reports per PR. benchmark/ is a module of its own
# and is not counted.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# loc-gate: the ratchet on that total. LOC_MAX is the module's size as of
# the last PR that changed it; a tree that has grown past it fails, and the
# PR that means to grow the module raises the number in its own diff, where
# a reviewer sees it. A PR that shrinks the module lowers it.
LOC_MAX := 20695
loc-gate:
	@n=$$($(MAKE) -s loc | awk '$$2 == "total" { print $$1 }'); \
	if [ "$$n" -gt $(LOC_MAX) ]; then \
		echo "loc-gate: $$n non-test lines, LOC_MAX is $(LOC_MAX): shrink the change or raise LOC_MAX in this diff"; exit 1; \
	fi; \
	echo "loc-gate: $$n non-test lines (LOC_MAX $(LOC_MAX))"

# bench: measured run of the hot-path kernels (crypt scratch kernels,
# the tree's warm and cold path check, deferred update and flush, engine
# read/write path, cache) plus the public API, in ns/op and allocs/op. It
# asserts nothing: the zero-allocation gate is `go test`'s
# TestScratchPathsAllocFree, TestReadWriteZeroAlloc and their neighbours,
# which measure the same paths. What runs faster with more processors — the
# two halves of a migration (the sender's frame encode, allocator and GC;
# the receiver's Install, both sweeps cut per processor) and the 2 MB range
# read and write, whose line crypto is pipelined — runs again at 1, 2 and 4.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/crypt ./internal/tree ./internal/engine .
	$(GO) test -bench='EncodeClosureFrame2M|Install2M|ReadRange2M|WriteRange2M' -benchmem -cpu 1,2,4 -run=^$$ ./internal/channel ./internal/engine

# bench-smoke: one iteration of every benchmark in the module — cheap CI
# proof that no benchmark has bit-rotted.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ ./...

# bench-module: benchmark/ is a module of its own (it imports this one's
# internal packages for its layer rungs), so `go test ./...` from the root
# never enters it and an internal rename can break it silently. Vet and
# test it from inside.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-pairs: record one workload of the benchmark as ten alternating
# 16 s parent/change pairs in BENCH_$(WORKLOAD).json, each side summarised
# by median and quartiles — the form a host-time claim is judged in. With
# PARENT=<checkout of the parent commit> both sides are measured afresh
# (about 8 minutes; run nothing else meanwhile); without it only the change
# side is, beside the parent side already in the file.
WORKLOAD ?= bulk
bench-pairs:
	$(GO) run ./cmd/mmt-benchpairs -workload $(WORKLOAD) $(if $(PARENT),-parent $(PARENT))

# smoke: the one end-to-end pipeline. Every artefact the repository
# writes is emitted once — the quickstart's Chrome trace, histograms,
# ledger and causal trees; the fig10 sidecar; the fig11 sidecar with its
# mmt-series/v1 companion, and again at -parallel 8, which must be
# byte-identical (the parallel runner's determinism contract); the
# manifest of a store that one process checkpoints and a second resumes —
# then all eight go through their strict parsers and renderers in one
# mmt-stat call, which fails on any file it cannot read. Every other example
# runs once too; examples/attacks exits non-zero if the unprotected
# baseline resists an attack or the delegation protocol lets one through.
S := .bench/smoke
smoke:
	rm -rf $(S)
	mkdir -p $(S)/par
	$(GO) run ./examples/quickstart -trace $(S)/trace.json -stats $(S)/hist.json -events $(S)/events.jsonl -causal $(S)/causal.json
	$(GO) run ./examples/attacks
	$(GO) run ./examples/federated
	$(GO) run ./examples/mapreduce
	$(GO) run ./examples/pagerank
	$(GO) run ./cmd/mmt-bench -fig 10 -out $(S)
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 20000 -series -out $(S)
	$(GO) run ./cmd/mmt-bench -fig 11 -accesses 20000 -parallel 8 -out $(S)/par
	cmp $(S)/BENCH_fig11.json $(S)/par/BENCH_fig11.json
	$(GO) run ./examples/snapshot -store $(S)/snapstore -manifest $(S)/manifest.json
	$(GO) run ./examples/snapshot -store $(S)/snapstore -manifest $(S)/manifest.json
	$(GO) run ./cmd/mmt-stat $(S)/trace.json $(S)/hist.json $(S)/events.jsonl $(S)/causal.json \
		$(S)/BENCH_fig10.json $(S)/BENCH_fig11.json $(S)/BENCH_fig11.series.json $(S)/manifest.json

# fuzz: every native fuzz target in the module, discovered with
# `go test -list` (a new Fuzz* function needs no edit here or in CI), each
# run on top of its committed corpus for an equal share of one 20 s budget.
fuzz:
	@set -e; \
	targets=$$($(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ { names = names " " $$1 } \
		/^ok/ { n = split(names, f, " "); for (i = 1; i <= n; i++) print $$2 ":" f[i]; names = "" }'); \
	test -n "$$targets" || { echo "make fuzz: no fuzz targets found"; exit 1; }; \
	each=$$(( 20 / $$(echo "$$targets" | wc -l) )); \
	for t in $$targets; do \
		echo "== $${t#*:} ($${t%%:*}) for $${each}s"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $${each}s $${t%%:*}; \
	done

# crash-sim: the crash simulator — every kill point of a checkpoint
# sequence under every disk-replay model must recover to a committed,
# hash-verified snapshot — plus the cross-process migration test.
crash-sim:
	$(GO) test -run 'TestCheckpointCrashConsistency|TestCrossProcessMigration|TestCrash' -v . ./internal/store

# check: what CI's first step runs. test is the coverage gate that leaves
# .bench/cover.out and .bench/cover.txt, which CI uploads.
check: build vet cross loc-gate test test-purego race bench-module
