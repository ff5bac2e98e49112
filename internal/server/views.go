package server

import (
	"rql"
	"rql/internal/wire"
)

// viewSubBuf is the per-subscriber batch buffer on a server-side view
// subscription: a client that falls more than this many refreshes
// behind is disconnected rather than allowed to stall the view's
// refresh path (the manager closes the channel; the session ends the
// stream).
const viewSubBuf = 64

// handleViews serves ReqViews: every materialized retro view's status.
func (ss *session) handleViews() error {
	e := &wire.Enc{}
	wire.EncodeViews(e, ss.srv.db.Views())
	return ss.writeFrame(wire.RespViews, e.B)
}

// handleViewSub serves ReqViewSub: like a replication stream, the
// subscription takes the session's connection over — after the opening
// ack the server pushes one RespViewBatch per materialized refresh
// until the client closes the connection, the view is dropped, or the
// subscriber falls too far behind. Works identically on replicas:
// their view managers refresh from shipped deltas, so a replica serves
// subscriptions read-only.
func (ss *session) handleViewSub(payload []byte) error {
	d := &wire.Dec{B: payload}
	req := wire.DecodeViewSubscribe(d)
	if d.Err() != nil {
		return d.Err()
	}
	sub, err := ss.srv.db.SubscribeView(req.View, viewSubBuf)
	if err != nil {
		ss.writeError(err)
		return nil
	}
	defer sub.Cancel()
	ss.setViewSub(sub)
	defer ss.setViewSub(nil)

	// Opening ack: an empty batch carrying the view's current cursor, so
	// the client knows the subscription is live and where it starts.
	var cursor uint64
	for _, v := range ss.srv.db.Views() {
		if v.Name == req.View {
			cursor = v.LastSnap
			break
		}
	}
	e := &wire.Enc{}
	wire.EncodeViewBatch(e, rql.ViewBatch{View: req.View, Snap: cursor})
	if err := ss.writeFrame(wire.RespViewBatch, e.B); err != nil {
		return err
	}
	if err := ss.flush(); err != nil {
		return err
	}

	// The client sends nothing after the subscribe; any read result
	// (normally EOF on close) ends the subscription.
	ss.nc.SetReadDeadline(noDeadline)
	go func() {
		_, _ = ss.br.ReadByte()
		sub.Cancel()
	}()

	for b := range sub.C {
		e := &wire.Enc{}
		wire.EncodeViewBatch(e, b)
		if err := ss.writeFrame(wire.RespViewBatch, e.B); err != nil {
			return err
		}
		if err := ss.flush(); err != nil {
			return err
		}
		ss.srv.stats.RowsStreamed.Add(uint64(len(b.Rows)))
	}
	return errStreamDone
}

// setViewSub records the session's active view subscription so shutdown
// can cancel it: a subscribed session is a long-lived "busy" session
// exactly like a replication stream, and the drain must not wait on it.
func (ss *session) setViewSub(sub *rql.ViewSub) {
	ss.mu.Lock()
	ss.viewSub = sub
	ss.mu.Unlock()
}

func (ss *session) cancelViewSub() {
	ss.mu.Lock()
	sub := ss.viewSub
	ss.mu.Unlock()
	if sub != nil {
		sub.Cancel()
	}
}
