package client

import (
	"io"

	"rql"
	"rql/internal/wire"
)

// ViewInfo is one materialized retro view's status as reported by the
// server (VIEWS request / rqlshell .views).
type ViewInfo = rql.ViewInfo

// ViewBatch is one pushed refresh on a view subscription: the rows the
// view materialized for one snapshot.
type ViewBatch = rql.ViewBatch

// Views lists every materialized retro view with its maintenance
// counters.
func (c *Conn) Views() (views []ViewInfo, err error) {
	err = c.call(wire.ReqViews, nil, func(d *wire.Dec) { views = wire.DecodeViews(d) })
	return views, err
}

// ViewStream is an open subscription to a view's extension stream. It
// consumes its Conn: like the replication stream, a subscription takes
// the connection over, so no other request can run on it until Close.
type ViewStream struct {
	c    *Conn
	view string

	// StartSnap is the view's refresh cursor at subscribe time; pushed
	// batches continue from the snapshot after it.
	StartSnap uint64
}

// SubscribeView opens a subscription to a view's extension stream: the
// server pushes one ViewBatch per snapshot the view materializes from
// now on. The connection is consumed by the stream —
// dial a dedicated Conn for a subscription. A subscriber that falls too
// far behind is disconnected by the server (Next returns io.EOF).
func (c *Conn) SubscribeView(view string) (*ViewStream, error) {
	e := &wire.Enc{}
	wire.EncodeViewSubscribe(e, wire.ViewSubscribe{View: view})
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.send(wire.ReqViewSub, e.B); err != nil {
		return nil, err
	}
	defer c.endRequest()
	op, body, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, c.fail(err)
	}
	// Opening ack: the view's current cursor, no rows. The connection is
	// a push stream from here on.
	ack, err := c.viewBatch(op, body)
	if err != nil {
		return nil, err
	}
	c.streaming = true
	return &ViewStream{c: c, view: view, StartSnap: ack.Snap}, nil
}

// viewBatch decodes one frame of a view stream, the opening ack
// included.
func (c *Conn) viewBatch(op byte, body []byte) (ViewBatch, error) {
	switch op {
	case wire.RespViewBatch:
		d := &wire.Dec{B: body}
		b := wire.DecodeViewBatch(d)
		if d.Err() != nil {
			return ViewBatch{}, c.fail(d.Err())
		}
		return b, nil
	case wire.RespError:
		return ViewBatch{}, wire.DecodeError(body)
	default:
		return ViewBatch{}, c.unexpected(op)
	}
}

// View returns the subscribed view's name.
func (s *ViewStream) View() string { return s.view }

// Next blocks for the next pushed batch. io.EOF means the stream ended
// (view dropped, server shut down, or this subscriber fell behind and
// was disconnected).
func (s *ViewStream) Next() (ViewBatch, error) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fatal != nil {
		return ViewBatch{}, c.fatal
	}
	op, body, err := wire.ReadFrame(c.br)
	if err != nil {
		c.fail(err)
		return ViewBatch{}, io.EOF
	}
	return c.viewBatch(op, body)
}

// Close ends the subscription by closing the underlying connection (the
// stream consumed it; there is no way back to request/response framing).
func (s *ViewStream) Close() error { return s.c.Close() }
