// Package repl implements snapshot-shipping replication: one writer
// (the primary) and N read-only replicas serving retrospective queries.
//
// The design exploits the shape of the RQL storage stack (ROADMAP open
// item #1). All durable state a retrospective query touches is either
// append-only (the Pagelog archive, the Maplog) or single-writer MVCC
// with a commit hook that observes every dirty page (the main store).
// The primary therefore ships *physical* per-commit deltas — the pages
// a commit wrote — and a replica applies each through its store's own
// commit path, where its Retro hook derives the commit's pre-state
// captures from the replica's store exactly as the primary's hook did.
// The replica reproduces the primary's store, Pagelog and Maplog
// exactly: same LSNs, same Pagelog offsets, same Skippy levels, and
// hence identical SPTs, identical mechanism results, and identical
// figure counters. Each delta's final frame carries the primary's
// Pagelog size after the commit; a replica whose Pagelog ends elsewhere
// after a group stops as diverged.
//
// Correctness bar (after the consistent-snapshot replication survey in
// PAPERS.md): a replica must only ever expose complete snapshot
// horizons, never a torn prefix. The replica buffers the delta stream
// until a COMMIT WITH SNAPSHOT arrives and applies the whole snapshot
// group under one store-mutex critical section, so concurrent readers
// pin either the previous snapshot's LSN or the new one. Its applied
// horizon moves only between complete snapshots.
//
// SnapIds is the one logical exception: it lives in the replica's own
// non-snapshotable side store (per the paper's two-database layout), so
// a snapshot's row ships in the final delta frame of the commit that
// declared it (core.DeclareSnapshot) and is inserted, idempotently,
// before the replica's horizon moves. A row inserted after its
// snapshot's commit (RecordSnapshot) reaches replicas only by bootstrap.
//
// Writes on a replica are rejected at the storage layer with a
// redirect error naming the primary; see RedirectError / IsRedirect.
package repl

import (
	"errors"
	"strings"
	"time"

	"rql/internal/storage"
	"rql/internal/wire"
)

// The wire codec hardcodes the page size; refuse to build if the
// storage engine ever disagrees.
var (
	_ [wire.PageSize - storage.PageSize]struct{}
	_ [storage.PageSize - wire.PageSize]struct{}
)

// DefaultRetainSnapshots is how many trailing snapshots of delta
// history the primary retains for resuming reconnecting replicas.
// Older history is trimmed; a replica further behind must bootstrap.
const DefaultRetainSnapshots = 4096

// redirectPrefix makes the redirect recognizable after a round trip
// through wire.RemoteError, which keeps only the message text.
const redirectPrefix = "repl: replica is read-only; redirect writes to primary"

// RedirectError builds the error a replica rejects writes with. addr
// may be empty when the primary's client address is not known.
func RedirectError(addr string) error {
	if addr == "" {
		return errors.New(redirectPrefix)
	}
	return errors.New(redirectPrefix + " at " + addr)
}

// IsRedirect reports whether err is a replica write-redirect (possibly
// received over the wire) and extracts the primary address, if present.
func IsRedirect(err error) (addr string, ok bool) {
	if err == nil {
		return "", false
	}
	msg := err.Error()
	i := strings.Index(msg, redirectPrefix)
	if i < 0 {
		return "", false
	}
	rest := msg[i+len(redirectPrefix):]
	if at := strings.TrimPrefix(rest, " at "); at != rest {
		if j := strings.IndexAny(at, " \n"); j >= 0 {
			at = at[:j]
		}
		return at, true
	}
	return "", true
}

// Stream shipping parameters. Bulk data is chunked well below
// wire.MaxFrame so a huge commit (a TPC-H load) never produces an
// oversized frame.
const (
	bootPagesPerChunk   = 2048 // 8 MiB of page images per bootstrap frame
	deltaPagesPerFrame  = 2048 // post-images per delta frame
	mapEntriesPerChunk  = 1 << 16
	annotsPerChunk      = 1 << 12
	defaultWriteTimeout = 30 * time.Second
)
