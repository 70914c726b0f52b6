package gateway

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
)

// Sentinels distinguishing why a log catch-up stopped: the client's
// write failed (stream is dead, say nothing) vs. the stream or gateway
// context ended vs. a persistent replay failure (tell the client).
var (
	errClientGone   = errors.New("gateway: client write failed")
	errStreamClosed = errors.New("gateway: stream context ended")
)

// handleSubscribe streams matching messages to the client as
// Server-Sent Events. Each message event's id: field carries the
// broker-assigned offset — durable when an event log is attached — so a
// client that drops mid-stream resumes exactly where it left off by
// reconnecting with the standard Last-Event-ID header (browsers'
// EventSource sends it automatically) or an explicit ?from=<offset>
// (inclusive).
//
// Two delivery modes share the endpoint:
//
//   - A fresh subscription is backed by a bounded broker queue, so
//     wildcard matching, retained replay and QoS drop accounting are
//     exactly the in-process semantics. Live messages leave in offset
//     order: the pump sends only up to the broker's fan-out watermark. A client whose subscription
//     drops more than the configured limit is disconnected with a
//     terminal "goodbye" event (slow-consumer eviction).
//
//   - A resuming client on a durable broker is served straight from the
//     event log (tailLog): history first, then the advancing tail, in
//     strict offset order, each event exactly once. There is no queue
//     to overflow, so backlog lives on disk and slow consumers are
//     never evicted — only a transport-stalled client is cut, by the
//     per-write deadline. Without a log, resume is best-effort:
//     retained replay plus offset filtering on the live queue.
//
//     GET /subscribe?pattern=obs/%2B/Rainfall&buffer=64&policy=oldest&from=1042
//
// Events:
//
//	event: message   data: Envelope JSON        (id: = durable offset)
//	event: goodbye   data: {"reason", "dropped"} (terminal, no id)
//	: keep-alive                                 (comment heartbeat)
func (g *Gateway) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		httpError(w, http.StatusBadRequest, "missing ?pattern=")
		return
	}
	if err := core.ValidatePattern(pattern); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	buffer, err := queryInt(r, "buffer", g.cfg.DefaultBuffer)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if buffer < 1 {
		buffer = 1
	}
	if buffer > g.cfg.MaxBuffer {
		buffer = g.cfg.MaxBuffer
	}
	policy := core.DropOldest
	switch r.URL.Query().Get("policy") {
	case "", "oldest":
	case "newest":
		policy = core.DropNewest
	default:
		httpError(w, http.StatusBadRequest, "bad policy (want oldest|newest)")
		return
	}
	// Resume cursor: ?from= is the first offset to deliver (inclusive)
	// and wins over Last-Event-ID, which is the last offset the client
	// saw (exclusive). Internally both become "deliver offsets > after".
	resume := false
	var after uint64
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			after, resume = v, true
		}
	}
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad from=%q", s)
			return
		}
		resume = true
		if v > 0 {
			after = v - 1
		} else {
			after = 0
		}
	}
	dropLimit := g.cfg.DropLimit
	if dropLimit <= 0 {
		dropLimit = buffer
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	if !g.addStream() {
		httpError(w, http.StatusServiceUnavailable, "gateway is shutting down")
		return
	}
	defer g.wg.Done()

	// A cursor from a different log generation (the directory was wiped
	// or replaced, offsets restarted) can point past the tail; left
	// alone it would suppress every delivery until the new sequence
	// climbed past it. Clamp to the tail: such a client gets the live
	// feed from now on.
	if resume {
		if next := g.cfg.Broker.NextOffset(); after >= next {
			after = next - 1
		}
	}

	// Per-write deadlines: a transport-stalled client (dead laptop, NAT
	// half-open) must fail its write and unwind the pump rather than
	// block it forever — a global server WriteTimeout can't be used on
	// an endless stream. SetWriteDeadline errors (unsupported writer)
	// are ignored; writes then simply have no deadline, as before.
	rc := http.NewResponseController(w)
	deadline := func() { _ = rc.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout)) }

	if resume {
		g.sseResumed.Add(1)
	}
	if resume && g.cfg.Broker.Log() != nil {
		g.tailLog(w, r, fl, deadline, pattern, after)
		return
	}

	// Every offset at or below the watermark finished fan-out before
	// the subscription existed, so the mailbox can only hold it as
	// retained replay.
	replayThrough := g.cfg.Broker.FannedOut()
	sub, err := g.cfg.Broker.Subscribe(pattern, buffer, policy)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer g.cfg.Broker.Unsubscribe(sub)
	// Retained replay happens inside Subscribe; a catalogue larger than
	// the client's buffer overflows it before the client had any chance
	// to read. Those drops are the replay's, not the consumer's — only
	// drops beyond this baseline count toward eviction.
	replayDropped := sub.Dropped()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	deadline()
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	g.sseStreams.Add(1)
	g.sseActive.Add(1)
	defer g.sseActive.Add(-1)

	flush := time.NewTicker(g.cfg.FlushInterval)
	defer flush.Stop()
	keepAlive := time.NewTicker(g.cfg.KeepAlive)
	defer keepAlive.Stop()

	var frames net.Buffers
	// held keeps polled messages above the broker's fan-out watermark
	// until every lower offset has reached the mailbox.
	var held []core.Message
	for {
		select {
		case <-r.Context().Done():
			return
		case <-g.ctx.Done():
			deadline()
			g.writeGoodbye(w, fl, "shutdown", sub.Dropped())
			return
		case <-keepAlive.C:
			deadline()
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-flush.C:
			// Evict before draining: a consumer that has already lost
			// dropLimit messages is not keeping up, and the backlog we
			// would write next is exactly what it failed to absorb.
			// The goodbye reports live-stream losses only, consistent
			// with the threshold. (On a durable broker the evicted
			// client recovers the gap by reconnecting with
			// Last-Event-ID — resumed streams are log-backed and never
			// evicted.)
			if dropped := sub.Dropped() - replayDropped; dropped >= dropLimit {
				g.slowDisconnects.Add(1)
				deadline()
				g.writeGoodbye(w, fl, "slow-consumer", dropped)
				return
			}
			// Coalesce the whole drain into one write and one flush:
			// the queue empties per wakeup anyway, so per-message
			// write/flush cycles only buy chunked-transfer overhead and
			// syscalls per event instead of per drain.
			frames = frames[:0]
			send := func(m core.Message) {
				// Best-effort resume without a log: suppress events the
				// client already saw; history itself is gone.
				if resume && m.Offset <= after {
					return
				}
				frames = append(frames, messageFrame(m))
			}
			// Concurrent publishers offer to the mailbox out of offset
			// order. Read the fan-out watermark before polling — every
			// matching live offset at or below it is then in hand — and
			// send only that prefix, sorted; the rest waits a tick. The
			// retained replay keeps the broker's topic order.
			through := g.cfg.Broker.FannedOut()
			for _, m := range sub.Poll(0) {
				if m.Offset <= replayThrough {
					send(m)
				} else {
					held = append(held, m)
				}
			}
			slices.SortFunc(held, func(a, b core.Message) int { return cmp.Compare(a.Offset, b.Offset) })
			ready := 0
			for ready < len(held) && held[ready].Offset <= through {
				send(held[ready])
				ready++
			}
			rest := copy(held, held[ready:])
			clear(held[rest:])
			held = held[:rest]
			if len(frames) == 0 {
				continue
			}
			deadline()
			n := len(frames)
			if err := writeFrames(w, frames); err != nil {
				return
			}
			g.sseEvents.Add(int64(n))
			fl.Flush()
		}
	}
}

// tailLog serves a resuming client directly from the event log: no
// broker queue at all. The log totally orders delivery by offset, so
// the stream cannot miss, duplicate, or reorder events — not even when
// racing publishers offer queue messages out of offset order, or when
// the client reads slower than the world publishes (the backlog lives
// on disk, not in a bounded buffer). Each flush tick extends the scan
// from the cursor; an idle tick costs one offset comparison.
func (g *Gateway) tailLog(w http.ResponseWriter, r *http.Request, fl http.Flusher, deadline func(), pattern string, after uint64) {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	deadline()
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	g.sseStreams.Add(1)
	g.sseActive.Add(1)
	defer g.sseActive.Add(-1)

	scanCursor, lastSent := after+1, after
	var err error
	scanCursor, lastSent, err = g.catchUp(w, r, fl, deadline, pattern, scanCursor, lastSent)
	if err != nil {
		g.endTail(w, fl, deadline, err)
		return
	}

	flush := time.NewTicker(g.cfg.FlushInterval)
	defer flush.Stop()
	keepAlive := time.NewTicker(g.cfg.KeepAlive)
	defer keepAlive.Stop()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-g.ctx.Done():
			deadline()
			g.writeGoodbye(w, fl, "shutdown", 0)
			return
		case <-keepAlive.C:
			deadline()
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-flush.C:
			if g.cfg.Broker.NextOffset() <= scanCursor {
				continue
			}
			scanCursor, lastSent, err = g.catchUp(w, r, fl, deadline, pattern, scanCursor, lastSent)
			if err != nil {
				g.endTail(w, fl, deadline, err)
				return
			}
		}
	}
}

// endTail closes a log-tail stream according to why it stopped: silence
// for a dead client or a cancelled request, a shutdown goodbye when the
// gateway is draining, and a replay-failed goodbye when the log itself
// could not be read — the client knows to reconnect rather than wait.
func (g *Gateway) endTail(w http.ResponseWriter, fl http.Flusher, deadline func(), err error) {
	switch {
	case errors.Is(err, errClientGone):
	case errors.Is(err, errStreamClosed):
		if g.ctx.Err() != nil {
			deadline()
			g.writeGoodbye(w, fl, "shutdown", 0)
		}
	default:
		deadline()
		g.writeGoodbye(w, fl, "replay-failed", 0)
	}
}

// catchUp streams logged history to the client: records with offset >
// lastSent matching pattern, scanning from scanCursor, looping until
// the replay reaches the (possibly still advancing) end of the log. It
// returns the new scan cursor and dedupe cursor. A transient replay
// error — compaction can remove a segment file between the scan's
// snapshot and its open — retries with a fresh snapshot; only repeated
// failure without progress is surfaced, so a recoverable race never
// silently skips history. Client writes and both contexts are checked
// per record, so shutdown cannot hang behind a long catch-up.
func (g *Gateway) catchUp(w http.ResponseWriter, r *http.Request, fl http.Flusher, deadline func(), pattern string, scanCursor, lastSent uint64) (uint64, uint64, error) {
	retries := 0
	var frames net.Buffers
	// flushFrames coalesces the batch into one client write and one
	// Flush. lastSent has already advanced past every queued frame, so
	// the batch MUST drain before any retry decision — an unflushed
	// frame plus a rescan would skip those records for good.
	flushFrames := func() error {
		if len(frames) == 0 {
			return nil
		}
		n := len(frames)
		deadline()
		err := writeFrames(w, frames)
		frames = frames[:0]
		if err != nil {
			return errClientGone
		}
		g.sseEvents.Add(int64(n))
		fl.Flush()
		return nil
	}
	for {
		if r.Context().Err() != nil || g.ctx.Err() != nil {
			return scanCursor, lastSent, errStreamClosed
		}
		wrote := 0
		next, err := g.cfg.Broker.ReplayFrom(scanCursor, pattern, func(m core.Message) error {
			if r.Context().Err() != nil || g.ctx.Err() != nil {
				return errStreamClosed
			}
			// A retried scan re-reads delivered records; skip them.
			if m.Offset <= lastSent {
				return nil
			}
			frames = append(frames, messageFrame(m))
			lastSent = m.Offset
			wrote++
			if len(frames) >= catchUpBatch {
				return flushFrames()
			}
			return nil
		})
		if ferr := flushFrames(); ferr != nil {
			return scanCursor, lastSent, ferr
		}
		if wrote > 0 {
			retries = 0
		}
		if err != nil {
			if errors.Is(err, errClientGone) || errors.Is(err, errStreamClosed) {
				return scanCursor, lastSent, err
			}
			retries++
			if retries >= 3 {
				return scanCursor, lastSent, err
			}
			continue
		}
		if next <= scanCursor {
			return next, lastSent, nil
		}
		scanCursor = next
	}
}

// writeGoodbye emits the terminal event; errors are moot, the stream is
// ending either way. Goodbyes carry no id: the SSE id is the resume
// cursor, and a terminal notice must not disturb it.
func (g *Gateway) writeGoodbye(w http.ResponseWriter, fl http.Flusher, reason string, dropped int) {
	switch reason {
	case "shutdown":
		g.goodbyeShutdown.Add(1)
	case "slow-consumer":
		g.goodbyeSlow.Add(1)
	case "replay-failed":
		g.goodbyeReplayFailed.Add(1)
	}
	_ = writeEvent(w, "goodbye", map[string]any{
		"reason":  reason,
		"dropped": dropped,
	}, 0)
	fl.Flush()
}

// catchUpBatch bounds how many frames a log catch-up accumulates before
// forcing a write+flush, so a multi-gigabyte history replay never
// buffers unbounded memory per client.
const catchUpBatch = 64

// coalesceMax bounds the pooled buffer writeFrames coalesces into; a
// drain whose frames total more than this skips the copy and hands the
// batch to net.Buffers instead (writev on connections that support it).
const coalesceMax = 64 << 10

var coalescePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8<<10)
	return &b
}}

// writeFrames writes a batch of prebuilt SSE frames with one client
// write instead of one per frame. Frames are message-cache-shared and
// must not be modified, so small batches are copied into a pooled
// buffer (one Write → one chunked-transfer chunk → one syscall) and
// jumbo batches go through net.Buffers, which uses writev where the
// underlying connection supports it and sequential writes elsewhere.
// The frames slice is consumed either way — callers reset it.
func writeFrames(w http.ResponseWriter, frames net.Buffers) error {
	if len(frames) == 0 {
		return nil
	}
	if len(frames) == 1 {
		_, err := w.Write(frames[0])
		return err
	}
	total := 0
	for _, f := range frames {
		total += len(f)
	}
	if total > coalesceMax {
		_, err := frames.WriteTo(w)
		return err
	}
	bp := coalescePool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, f := range frames {
		buf = append(buf, f...)
	}
	_, err := w.Write(buf)
	if cap(buf) <= coalesceMax {
		*bp = buf[:0]
		coalescePool.Put(bp)
	}
	return err
}

// messageFrame renders (or fetches the cached) complete SSE frame for a
// message: "id: <offset>\nevent: message\ndata: <envelope JSON>\n\n".
// The id: line is omitted for offset 0 (a message that never passed
// through a broker) so the client's Last-Event-ID keeps pointing at
// real history.
//
//dewsvet:hotpath
func messageFrame(m core.Message) []byte {
	// The render closure runs at most once per published message —
	// SharedFrame caches the frame, so every later subscriber gets the
	// prebuilt bytes and the steady-state call allocates nothing.
	//dewsvet:hotalloc-ok once-per-message render; SharedFrame caches the result for every later call
	return m.SharedFrame(func(payloadJSON []byte) []byte {
		body, err := json.Marshal(Envelope{
			Offset:  m.Offset,
			Topic:   m.Topic,
			Time:    m.Time,
			Payload: payloadJSON,
			Headers: m.Headers,
		})
		if err != nil {
			// Only a non-marshalable time (year outside [0,9999]) can
			// land here; degrade to a minimal envelope rather than
			// killing the stream.
			body, _ = json.Marshal(Envelope{Offset: m.Offset, Topic: m.Topic, Payload: payloadJSON, Headers: m.Headers})
		}
		buf := make([]byte, 0, len(body)+48)
		if m.Offset > 0 {
			buf = append(buf, "id: "...)
			buf = strconv.AppendUint(buf, m.Offset, 10)
			buf = append(buf, '\n')
		}
		buf = append(buf, "event: message\ndata: "...)
		buf = append(buf, body...)
		buf = append(buf, "\n\n"...)
		return buf
	})
}

// writeEvent writes one non-message SSE frame (goodbye). id 0 omits the
// id: line so the client's Last-Event-ID keeps pointing at real
// history.
func writeEvent(w http.ResponseWriter, event string, data any, id uint64) error {
	body, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if id > 0 {
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, body)
	} else {
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
	}
	return err
}
