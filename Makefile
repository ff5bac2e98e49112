GO ?= go

.PHONY: all check build vet test race fmt loc sql-cover smoke-lint repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke shell-smoke examples-smoke fig-check microbench

all: check

# check is the tier-1 gate: build, vet, race-enabled tests, gofmt as a
# failing check, the smoke-pattern lint, the replication smoke, the
# group-commit stress smoke, the compaction smoke, the incremental-view
# smoke, the decoder fuzz smoke, the rqlshell transcript smoke, the
# examples smoke, and the figure counter check. race also runs the
# reachability test (unused_test.go): every declaration under internal/
# has a caller outside the tests. Every member is a deterministic
# pass/fail; wall-clock performance is measured by the benchmark/
# harness, not gated here.
check: build vet race fmt smoke-lint repl-smoke groupcommit-smoke compact-smoke view-smoke fuzz-smoke shell-smoke examples-smoke fig-check

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
# as before -> after. Fixtures under testdata/ are test inputs, not
# program lines.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# sql-cover reports how much of internal/sql the rest of the system
# reaches: the functions of internal/sql that the tests of the packages
# using it never enter — sql's own unit tests left out — and the
# statement coverage total. Reporting only, like loc.
SQL_COVER_PKGS = . ./internal/core ./internal/bench ./internal/server ./client ./internal/repl ./internal/tpch
sql-cover:
	@prof="$$(mktemp)"; \
	$(GO) test -coverpkg=rql/internal/sql -coverprofile="$$prof" $(SQL_COVER_PKGS) >/dev/null && \
	$(GO) tool cover -func="$$prof" | awk '$$NF == "0.0%"; /^total:/ { t = $$0 } END { print t }'; \
	st=$$?; rm -f "$$prof"; exit $$st

# repl-smoke runs the replication acceptance surface under the race
# detector: bootstrap/tail/resume/redirect, byte-identical replicated
# retrospection, cross-version handshake, and the 3-replica fan-out
# stress run with a mid-run replica kill and restart. The stress run and
# the restart test then repeat 50 times: both check that a replica at
# horizon H already holds H's SnapIds row, which a race would break only
# in some runs.
REPL_SMOKE_RUN = TestRepl|TestCrossVersion
REPL_STRESS_RUN = ^(TestReplicatedStress100Sessions|TestReplicaRestartResumes)$$
REPL_SMOKE_PKGS = ./internal/repl ./internal/server
repl-smoke:
	$(GO) test -race -run '$(REPL_SMOKE_RUN)' $(REPL_SMOKE_PKGS)
	$(GO) test -race -count=50 -run '$(REPL_STRESS_RUN)' $(REPL_SMOKE_PKGS)

# groupcommit-smoke runs the write path's correctness surface under the
# race detector: the concurrent-writer stress harness with its analytic
# shadow model, the serial-determinism property test (a serial caller's
# results and counter snapshots are byte-identical run to run), the
# batching tests (one flush per commit at one writer and one flush
# decision per group at eight; that eight writers form fewer groups than
# commits is left to storage's TestGroupCommitBatches, whose gate hook
# holds the leader in its flush, because nothing else makes it
# deterministic), the conflict/abandon/ctx storage tests, and the side-store concurrency
# tests (open result writers block no other session; TEMP DDL races are
# retried; concurrent mechanisms beside a live view match their serial
# runs), and the isolation of the shared schema memos (DDL held open in
# one transaction stays invisible to concurrent writers and readers, and
# a rollback leaves every connection on the old catalog), and the plans
# connections keep (texts repeated on kept plans while another
# connection rebuilds their table read its one content at every run),
# and the table leaf an index scan's cursor holds (kept-plan range reads
# alternating between snapshots and the current state, while a writer
# splits and frees the leaves they land in, match a fresh connection's). -count=3: the
# stress harness and the concurrency tests depend on scheduling, and
# single runs let a 3/3 accounting failure and a 5/10 flake through.
GROUPCOMMIT_SMOKE_RUN = TestGroupCommit|TestExplicitTxConflict|TestAutocommitConflictRetry|TestConnContextCancelsWriterWait|TestBeginCtx|TestQuiesce|TestSideStore|TestUncommittedDDLInvisible|TestKeptPlansUnderConcurrentDDL|TestKeptRangeReadsUnderSplitsAndFrees
GROUPCOMMIT_SMOKE_PKGS = . ./internal/storage ./internal/sql ./internal/core ./internal/server
groupcommit-smoke:
	$(GO) test -race -count=3 -run '$(GROUPCOMMIT_SMOKE_RUN)' $(GROUPCOMMIT_SMOKE_PKGS)

# compact-smoke runs the Pagelog-tiering correctness surface under the
# race detector: sealed-read equivalence, seal crash safety and the
# seal's publish order (.tmp write, sync, rename, directory sync), the
# concurrent seal/read/write stress loop, the teardown of a system
# failed by a lost group flush, the compaction-on-vs-off
# serial-equivalence property test, and replication bootstrap over
# sealed segments; every Pagelog test (TestPagelog*: the memory and file
# backings agreeing call for call, reads, export after Close); and the
# demand reads the snapshot readers go through (one billed read and one
# device read per page under concurrent readers, joiners of an
# in-service miss held on the Pagelog's lock, a read fault injected
# through faultFS failing exactly one of concurrent reads, and one on a
# sealed segment reaching SnapshotReader.Get). The fault tests run over
# both backings.
# -count=3 for the same reason as groupcommit-smoke. Then the shared
# SPT segment tables' stress test 20 times: single and set opens over
# overlapping members, a writer declaring across Skippy level
# boundaries and ResetCache dropping the tables, every open checked
# against the naive Maplog scan over its own pinned prefix.
COMPACT_SMOKE_RUN = TestSeal|TestSegment|TestCompact|TestCompaction|TestPagelog|TestFailedSystem|TestSnapshotValuesSurviveSealing|TestReplicaBootstrapWithSealedSegments|TestDemandRead|TestInjectedReadError
COMPACT_SMOKE_PKGS = ./internal/retro ./internal/repl .
SPT_STRESS_RUN = ^(TestConcurrentBuildsAndChecks)$$
SPT_STRESS_PKGS = ./internal/retro
compact-smoke:
	$(GO) test -race -count=3 -run '$(COMPACT_SMOKE_RUN)' $(COMPACT_SMOKE_PKGS)
	$(GO) test -race -count=20 -run '$(SPT_STRESS_RUN)' $(SPT_STRESS_PKGS)

# view-smoke runs the incremental materialized-view correctness
# surface under the race detector: the incremental-vs-full-recompute
# property test for all four mechanisms (prune on and off), the
# re-attach rebuild, failed-step, one-commit-per-refresh and
# DDL-lifecycle tests, subscription delivery with a shadow model while
# a concurrent writer commits, view replication
# (bootstrap shipping, logical DDL events, replica-side maintenance),
# and, since runs and views share one delta oracle, the run-side
# pruned-vs-unpruned tests and the runs-and-views prune agreement.
VIEW_SMOKE_RUN = TestRetroView|TestReplicatedRetroViews|TestViewSmoke|TestDeltaPrune|TestRunsAndViewsPruneAlike
VIEW_SMOKE_PKGS = ./internal/core ./internal/repl ./internal/server
view-smoke:
	$(GO) test -race -run '$(VIEW_SMOKE_RUN)' $(VIEW_SMOKE_PKGS)

# smoke-lint keeps the smokes' -run patterns from rotting silently: for
# every alternative of every smoke's pattern it runs go test -list over
# that smoke's packages, and fails when the alternative names no test
# (a renamed or deleted test would otherwise just shrink the smoke). An
# anchored pattern ^(a|b)$ is checked alternative by alternative as
# ^a$ and ^b$.
smoke-lint:
	@lint() { \
		pat=$$1; shift; alts=$${pat#^(}; pre=; post=; \
		if [ "$$alts" != "$$pat" ]; then alts=$${alts%)\$$}; pre='^'; post='$$'; fi; \
		for a in $$(echo "$$alts" | tr '|' ' '); do \
			out=$$($(GO) test -list "$$pre$$a$$post" "$$@") || { echo "$$out"; return 1; }; \
			if ! echo "$$out" | grep -Evq '^(ok|\?) '; then \
				echo "smoke-lint: -run alternative '$$a' names no test in $$*"; return 1; \
			fi; \
		done; \
	}; \
	lint '$(REPL_SMOKE_RUN)' $(REPL_SMOKE_PKGS) && \
	lint '$(REPL_STRESS_RUN)' $(REPL_SMOKE_PKGS) && \
	lint '$(GROUPCOMMIT_SMOKE_RUN)' $(GROUPCOMMIT_SMOKE_PKGS) && \
	lint '$(COMPACT_SMOKE_RUN)' $(COMPACT_SMOKE_PKGS) && \
	lint '$(SPT_STRESS_RUN)' $(SPT_STRESS_PKGS) && \
	lint '$(VIEW_SMOKE_RUN)' $(VIEW_SMOKE_PKGS)

# fuzz-smoke fuzzes each decoder that sees untrusted bytes — the wire
# decoders, the sealed-segment metadata a replica is shipped, the SQL
# parser, the catalog entries a replica's pages carry
# (sql:FuzzCatalogEntry) and the row decoder those entries and every
# table row go through (record:FuzzDecodeRowInto) — for ten
# seconds (go test -fuzz takes one target of one package per run): no
# panic, no allocation beyond a small multiple of the input where the
# target bounds it, and clean decodes survive an encode/decode round (an
# accepted catalog entry re-encodes to its own bytes). It also fuzzes
# the B-tree's insert/delete/key-rewrite op stream, with lookups through
# one long-lived cursor and reopens onto a second store, against a
# sorted-map model (btree:FuzzTreeOps). The seed corpora also run inside plain
# `go test ./...`. A failing input lands in the package's
# testdata/fuzz/ — commit it as a regression seed.
FUZZ_TARGETS = \
	wire:FuzzReadFrame wire:FuzzDecodeMetrics wire:FuzzDecodeExecStats wire:FuzzDecodeRunStats \
	wire:FuzzDecodeSlowEntries wire:FuzzDecodeObjects wire:FuzzDecodeViews wire:FuzzDecodeViewBatch \
	wire:FuzzDecodeReplDelta retro:FuzzParseSegmentMeta sql:FuzzParse \
	sql:FuzzCatalogEntry record:FuzzDecodeRowInto btree:FuzzTreeOps
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

# examples-smoke runs every program under examples/ — the README's
# walkthroughs, audit and profile among them printing SPT build times —
# and fails on the first that exits non-zero.
examples-smoke:
	@for d in examples/*/; do \
		echo "examples-smoke: $${d%/}"; \
		$(GO) run "./$${d%/}" >/dev/null || { echo "examples-smoke: $${d%/} failed"; exit 1; }; \
	done

# fig-check runs the quick §5 sweep (fig 6–13, §5.3, the ablation) and
# holds its counter columns — Pagelog reads, DB reads, cache hits,
# fig 7's C_io, result rows and bytes — byte-identical to the committed
# golden file, every wall-clock value masked (see
# cmd/rqlbench/figmask.sh, which also says how to regenerate the golden
# after a change that moves a counter on purpose). A sweep that fails
# prints short of the golden, so the diff fails too. ~35 s.
fig-check:
	$(GO) run ./cmd/rqlbench -all -quick -seed 1 | bash cmd/rqlbench/figmask.sh | \
		diff -u cmd/rqlbench/testdata/figcheck.golden -

# microbench runs the Go testing benchmarks (one pass, smoke-level),
# reporting allocations: BenchmarkExecAsOfSet's allocs/op is allocations
# per set member, and its point_setless case those of one set-less AS OF
# point read on the plan its connection keeps; retro's
# BenchmarkOpenSnapshot times a warm open of an old and of a recent
# snapshot over the shared segment tables; sql's BenchmarkTableWriterFold
# gives ns and allocations per folded result-table tuple, for the
# aggtable shape (lookup + same-key update) and the intervals shape
# (lookup + index-key move).
microbench:
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' ./...
