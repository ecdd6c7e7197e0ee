package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// event is one Server-Sent-Events frame: `id: <seq>` + `event: <name>`
// + one `data:` line of JSON, blank-line terminated (the payloads are
// single-line compact JSON, so no data-line splitting is needed). The
// line is held in chunks, as the answer writer filled them.
type event struct {
	id   int64
	name string
	data [][]byte
}

// writeTo writes the frame, its data chunk by chunk: every subscriber
// writes the event's own chunks, and none copies them.
func (e event) writeTo(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: ", e.id, e.name); err != nil {
		return err
	}
	for _, c := range e.data {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n\n")
	return err
}

// hub fans one session's event stream out to its SSE subscribers. A
// subscriber that cannot keep up has events dropped (counted on the
// server's serve_sse_dropped metric) rather than back-pressuring the
// analysis executor: the feed is an observation channel, never part of
// the computation — exactly the internal/obs contract.
type hub struct {
	mu      sync.Mutex
	subs    map[chan event]struct{}
	nextID  int64
	closed  bool
	dropped func() // observation hook; may be nil
}

func newHub(dropped func()) *hub {
	return &hub{subs: map[chan event]struct{}{}, dropped: dropped}
}

// subscribe registers a buffered event channel. The returned cancel is
// idempotent and safe after close; the channel is closed by cancel or
// by hub close, whichever comes first.
func (h *hub) subscribe() (<-chan event, func()) {
	ch := make(chan event, 32)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// publish delivers one event to every subscriber without blocking.
// The payload is written only when the hub has a subscriber, but the
// event id advances on every call, so ids keep counting rounds: a
// subscriber that joins after k silent rounds sees id k+1 first. A nil
// payload (a round encoding/json could not write either) drops the
// round's event, never sends it empty. No-op after close.
func (h *hub) publish(name string, payload func() [][]byte) {
	var data [][]byte
	if h.listening() {
		data = payload()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.nextID++
	if data == nil {
		return
	}
	e := event{id: h.nextID, name: name, data: data}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			if h.dropped != nil {
				h.dropped()
			}
		}
	}
}

// listening reports whether the hub has a subscriber.
func (h *hub) listening() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs) > 0
}

// close terminates every subscriber stream. Idempotent.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}

// serveSSE streams a hub to one HTTP client until the client goes away
// or the hub closes. keepalive comments flow every interval so idle
// streams survive proxies; 0 disables them (tests).
func serveSSE(w http.ResponseWriter, r *http.Request, h *hub, hello event, keepalive time.Duration) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errf(CodeAnalysis, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	ch, cancel := h.subscribe()
	defer cancel()
	if err := hello.writeTo(w); err != nil {
		return
	}
	fl.Flush()
	var tick <-chan time.Time
	if keepalive > 0 {
		t := time.NewTicker(keepalive)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return // session closed or evicted
			}
			if err := e.writeTo(w); err != nil {
				return
			}
			fl.Flush()
		case <-tick:
			if _, err := fmt.Fprint(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
