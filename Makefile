GO ?= go

.PHONY: all check build vet test race fmt loc repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke shell-smoke microbench

all: check

# check is the tier-1 gate: build, vet, race-enabled tests, gofmt as a
# failing check, the replication smoke, the group-commit stress smoke,
# the compaction smoke, the incremental-view smoke, the decoder fuzz
# smoke, and the rqlshell transcript smoke. Every member is a
# deterministic pass/fail; wall-clock performance is measured by the
# benchmark/ harness, not gated here.
check: build vet race fmt repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke shell-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# loc prints the non-test Go lines of every package outside benchmark/
# and their total — the size ROADMAP quotes and a simplicity PR reports
# as before -> after.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# repl-smoke runs the replication acceptance surface under the race
# detector: bootstrap/tail/resume/redirect, byte-identical replicated
# retrospection, cross-version handshake, and the 3-replica fan-out
# stress run with a mid-run replica kill and restart. The stress run and
# the restart test then repeat 50 times: both check that a replica at
# horizon H already holds H's SnapIds row, which a race would break only
# in some runs.
repl-smoke:
	$(GO) test -race -run 'TestRepl|TestCrossVersion' ./internal/repl ./internal/server
	$(GO) test -race -count=50 -run '^(TestReplicatedStress100Sessions|TestReplicaRestartResumes)$$' ./internal/repl ./internal/server

# groupcommit-smoke runs the write path's correctness surface under the
# race detector: the concurrent-writer stress harness with its analytic
# shadow model, the serial-determinism property test (a serial caller's
# results and counter snapshots are byte-identical run to run), the
# batching test (one flush per commit at one writer, fewer groups than
# commits at eight, one flush decision per group), the
# conflict/abandon/ctx storage tests, and the side-store concurrency
# tests (open result writers block no other session; TEMP DDL races are
# retried; concurrent mechanisms beside a live view match their serial
# runs). -count=3: the stress harness and the concurrency tests depend
# on scheduling, and single runs let a 3/3 accounting failure and a
# 5/10 flake through.
groupcommit-smoke:
	$(GO) test -race -count=3 -run 'TestGroupCommit|TestExplicitTxConflict|TestAutocommitConflictRetry|TestConnContextCancelsWriterWait|TestBeginCtx|TestQuiesce|TestSideStore' . ./internal/storage ./internal/sql ./internal/core ./internal/server

# compact-smoke runs the Pagelog-tiering correctness surface under the
# race detector: sealed-read equivalence, seal crash safety, retention
# drops, the concurrent seal/read/truncate stress loop, the
# compaction-on-vs-off serial-equivalence property test, and
# replication bootstrap over sealed segments — and the device model the
# reads go through (queue depth, FIFO order, busy accounting, one billed
# read per page under parallel lanes). -count=3 for the same reason as
# groupcommit-smoke.
compact-smoke:
	$(GO) test -race -count=3 -run 'TestSeal|TestSegment|TestRetention|TestCompact|TestCompaction|TestPagelogClose|TestSnapshotValuesSurviveSealing|TestReplicaBootstrapWithSealedSegments|TestDevice|TestDemandRead' ./internal/retro ./internal/repl .

# view-smoke runs the incremental materialized-view correctness
# surface under the race detector: the incremental-vs-full-recompute
# property test for all four mechanisms (prune on and off), the
# restart-resume and DDL-lifecycle tests, subscription delivery with a
# shadow model while a concurrent writer commits, and view replication
# (bootstrap shipping, logical DDL events, replica-side maintenance).
view-smoke:
	$(GO) test -race -run 'TestRetroView|TestReplicatedRetroViews|TestViewSmoke' ./internal/core ./internal/repl ./internal/server

# fuzz-smoke fuzzes each decoder that sees untrusted bytes — the wire
# decoders, the sealed-segment metadata a replica is shipped, a view's
# persisted state — for ten seconds (go test -fuzz takes one target of
# one package per run): no panic, no allocation beyond a small multiple
# of the input, and clean decodes survive an encode/decode round. The
# seed corpora also run inside plain `go test ./...`. A failing input
# lands in the package's testdata/fuzz/ — commit it as a regression
# seed.
FUZZ_TARGETS = \
	wire:FuzzReadFrame wire:FuzzDecodeMetrics wire:FuzzDecodeExecStats wire:FuzzDecodeRunStats \
	wire:FuzzDecodeSlowEntries wire:FuzzDecodeObjects wire:FuzzDecodeViews wire:FuzzDecodeViewBatch \
	wire:FuzzDecodeReplDelta retro:FuzzParseSegmentMeta core:FuzzDecodeViewState
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime=10s ./internal/$${t%%:*} || exit 1; \
	done

# shell-smoke pipes one script — DDL, snapshots, AS OF, a mechanism UDF,
# a retro view and every dot command — through rqlshell in local mode
# and again with -connect against a spawned rqld, and holds both runs to
# one transcript (see cmd/rqlshell/smoke.sh).
shell-smoke:
	bash cmd/rqlshell/smoke.sh

# microbench runs the Go testing benchmarks (one pass, smoke-level).
microbench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
