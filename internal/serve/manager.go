package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/obs"
)

// manager is the bounded session pool. Each session owns one executor
// goroutine that runs requests strictly in arrival order, because
// incremental.Session is single-writer by contract: serialization is
// what lets a served session keep the bit-reproducibility guarantee
// under concurrent clients — every client observes some total order of
// committed deltas, and each round's bounds are exactly the cold bounds
// of the configuration at that point of the order.
//
// Locking: manager.mu guards the session map, the pool/draining state,
// and every managed's bookkeeping fields (lastUsed, inflightN, closing,
// stats). The incremental.Session itself is touched only by its
// executor goroutine.
type manager struct {
	opts    Options
	reg     *obs.Registry
	metrics serveMetrics
	now     func() time.Time

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a session's inflightN drops to 0
	sessions map[string]*managed
	nextID   int
	draining bool
	stop     chan struct{} // closed on drain; stops the idle janitor
	wg       sync.WaitGroup
}

// managed is one pooled session.
type managed struct {
	id   string
	num  int // numeric part of id, for stable listing order
	reqs chan func()
	done chan struct{} // closed when the executor has fully shut down
	hub  *hub
	sess *incremental.Session

	// Guarded by manager.mu.
	lastUsed  time.Time
	inflightN int
	closing   bool
	stats     sessionStats
}

// sessionStats is the mu-guarded metadata behind SessionInfo.
type sessionStats struct {
	vls, paths, parallel, seq, applied int
}

// serveMetrics is the serving layer's instrument bundle. Request and
// round counts are pure functions of the served traffic (Deterministic
// class); eviction and drop counts observe timing (BestEffort).
type serveMetrics struct {
	requests *obs.Counter
	sessions *obs.Counter
	rounds   *obs.Counter
	deltas   *obs.Counter
	evicted  *obs.Counter
	dropped  *obs.Counter
}

func newManager(opts Options, reg *obs.Registry) *manager {
	m := &manager{
		opts:     opts,
		reg:      reg,
		sessions: map[string]*managed{},
		stop:     make(chan struct{}),
		now:      opts.Clock,
		metrics: serveMetrics{
			requests: reg.Counter("serve_http_requests", obs.Deterministic, "HTTP requests handled"),
			sessions: reg.Counter("serve_sessions_created", obs.Deterministic, "what-if sessions opened"),
			rounds:   reg.Counter("serve_analysis_rounds", obs.Deterministic, "analysis rounds served (base + whatif + apply)"),
			deltas:   reg.Counter("serve_deltas_committed", obs.Deterministic, "deltas committed by /apply"),
			evicted:  reg.Counter("serve_sessions_evicted", obs.BestEffort, "sessions evicted (idle timeout or pool pressure)"),
			dropped:  reg.Counter("serve_sse_dropped", obs.BestEffort, "SSE events dropped to slow subscribers"),
		},
	}
	if m.now == nil {
		m.now = time.Now
	}
	m.cond = sync.NewCond(&m.mu)
	if opts.IdleTimeout > 0 {
		go m.janitor()
	}
	return m
}

// create validates the configuration into a new pooled session and
// starts its executor. Every round of the session is core.Certify at
// the session's worker count, the analysis the cold-anchor replay
// runs, so a served answer and its anchor differ only by the session
// and the wire in between. The pool bound is enforced here: a full
// pool first tries to evict its least-recently-used idle session, and
// refuses the upload only when every session has requests in flight.
func (m *manager) create(net *afdx.Network, parallel int) (*managed, error) {
	sess, err := incremental.NewSession(net, incremental.Options{
		Mode: m.opts.Mode,
		Analysis: func(ctx context.Context, pg *afdx.PortGraph) (*core.Comparison, error) {
			return core.Certify(ctx, pg, parallel)
		},
	})
	if err != nil {
		return nil, errf(CodeInvalidConfig, "%v", err)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		sess.Close()
		return nil, errf(CodeDraining, "server is draining")
	}
	var victim *managed
	if m.opts.MaxSessions > 0 && len(m.sessions) >= m.opts.MaxSessions {
		if victim = m.lruIdleLocked(); victim == nil {
			m.mu.Unlock()
			sess.Close()
			return nil, errf(CodePoolFull, "session pool full (%d) and every session is busy", m.opts.MaxSessions)
		}
		m.removeLocked(victim)
	}
	m.nextID++
	ms := &managed{
		id:       "s" + strconv.Itoa(m.nextID),
		num:      m.nextID,
		reqs:     make(chan func(), 64),
		done:     make(chan struct{}),
		hub:      newHub(m.metrics.dropped.Inc),
		sess:     sess,
		lastUsed: m.now(),
		stats: sessionStats{
			vls:      len(net.VLs),
			paths:    len(net.AllPaths()),
			parallel: parallel,
		},
	}
	m.sessions[ms.id] = ms
	m.wg.Add(1)
	go m.run(ms)
	m.mu.Unlock()
	if victim != nil {
		close(victim.reqs)
		m.metrics.evicted.Inc()
	}
	m.metrics.sessions.Inc()
	return ms, nil
}

// run is a session's executor goroutine: it applies the queued requests
// one at a time until the request channel closes, then releases the
// session and terminates the event stream.
func (m *manager) run(ms *managed) {
	defer m.wg.Done()
	for fn := range ms.reqs {
		fn()
	}
	ms.sess.Close()
	ms.hub.publish("closed", func() [][]byte {
		data, _ := json.Marshal(map[string]string{"session": ms.id}) // a string map always marshals
		return [][]byte{data}
	})
	ms.hub.close()
	close(ms.done)
}

// submit runs fn on the session's executor and waits for its result,
// bounded by the request timeout. A timed-out request abandons the
// response only — work already queued still executes in order, and its
// outcome is streamed on the session's event feed.
func (m *manager) submit(ctx context.Context, id string, fn func(ctx context.Context, sess *incremental.Session, ms *managed) (*AnalysisResponse, error)) (*AnalysisResponse, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, errf(CodeDraining, "server is draining")
	}
	ms := m.sessions[id]
	if ms == nil || ms.closing {
		m.mu.Unlock()
		return nil, errf(CodeUnknownSession, "unknown session %q", id)
	}
	ms.inflightN++
	ms.lastUsed = m.now()
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		ms.inflightN--
		if ms.inflightN == 0 {
			m.cond.Broadcast()
		}
		m.mu.Unlock()
	}()

	if m.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, m.opts.RequestTimeout)
		defer cancel()
	}
	ctx = obs.WithRegistry(ctx, m.reg)

	type result struct {
		out *AnalysisResponse
		err error
	}
	reply := make(chan result, 1) // buffered: the executor never blocks on an abandoned request
	task := func() {
		out, err := fn(ctx, ms.sess, ms)
		reply <- result{out, err}
	}
	select {
	case ms.reqs <- task:
	case <-ms.done:
		return nil, errf(CodeUnknownSession, "session %q closed", id)
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
	select {
	case r := <-reply:
		return r.out, r.err
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
}

func ctxErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return errf(CodeTimeout, "request timed out")
	}
	return errf(CodeTimeout, "request cancelled: %v", ctx.Err())
}

// lruIdleLocked returns the least-recently-used session with no request
// in flight, or nil. Caller holds m.mu.
func (m *manager) lruIdleLocked() *managed {
	var victim *managed
	for _, ms := range m.sessions {
		if ms.closing || ms.inflightN > 0 {
			continue
		}
		if victim == nil || ms.lastUsed.Before(victim.lastUsed) ||
			(ms.lastUsed.Equal(victim.lastUsed) && ms.num < victim.num) {
			victim = ms
		}
	}
	return victim
}

// removeLocked marks a session closing and unlinks it from the map so
// lookups fail immediately. The caller closes ms.reqs after releasing
// m.mu (only once inflightN is 0 — guaranteed for idle victims, waited
// on elsewhere); the executor then drains and shuts down.
func (m *manager) removeLocked(ms *managed) {
	ms.closing = true
	delete(m.sessions, ms.id)
}

// close terminates one session: waits out its in-flight requests, then
// closes the executor. Used by DELETE and by upload-failure cleanup.
func (m *manager) close(id string) error {
	m.mu.Lock()
	ms := m.sessions[id]
	if ms == nil || ms.closing {
		m.mu.Unlock()
		return errf(CodeUnknownSession, "unknown session %q", id)
	}
	m.removeLocked(ms)
	for ms.inflightN > 0 {
		m.cond.Wait()
	}
	m.mu.Unlock()
	close(ms.reqs)
	return nil
}

// evictIdle closes every session idle for at least olderThan and
// returns how many it evicted.
func (m *manager) evictIdle(olderThan time.Duration) int {
	cutoff := m.now().Add(-olderThan)
	m.mu.Lock()
	var victims []*managed
	for _, ms := range m.sessions {
		if !ms.closing && ms.inflightN == 0 && !ms.lastUsed.After(cutoff) {
			victims = append(victims, ms)
			m.removeLocked(ms)
		}
	}
	m.mu.Unlock()
	// Creation order, not map order: teardown is observable through the
	// eviction log lines and SSE "closed" events.
	sort.Slice(victims, func(i, j int) bool { return victims[i].num < victims[j].num })
	for _, ms := range victims {
		close(ms.reqs)
		m.metrics.evicted.Inc()
	}
	return len(victims)
}

// janitor periodically evicts idle sessions until drain.
func (m *manager) janitor() {
	period := m.opts.IdleTimeout / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.evictIdle(m.opts.IdleTimeout)
		case <-m.stop:
			return
		}
	}
}

// drain stops accepting work, waits for in-flight requests, shuts every
// executor down, and returns when all have exited or ctx expires.
func (m *manager) drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.stop)
	var all []*managed
	for _, ms := range m.sessions {
		if !ms.closing {
			all = append(all, ms)
			ms.closing = true
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].num < all[j].num })
	// In-flight requests finish on their own (each is bounded by the
	// request timeout); new ones are already refused by the draining
	// flag. Wait them out session by session, then close the executors.
	for _, ms := range all {
		for ms.inflightN > 0 {
			m.cond.Wait()
		}
		delete(m.sessions, ms.id)
	}
	m.mu.Unlock()
	for _, ms := range all {
		close(ms.reqs)
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// info returns one session's SessionInfo, or nil.
func (m *manager) info(id string) *SessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms := m.sessions[id]
	if ms == nil || ms.closing {
		return nil
	}
	return m.infoLocked(ms)
}

func (m *manager) infoLocked(ms *managed) *SessionInfo {
	return &SessionInfo{
		ID:       ms.id,
		VLs:      ms.stats.vls,
		Paths:    ms.stats.paths,
		Parallel: ms.stats.parallel,
		Seq:      ms.stats.seq,
		Applied:  ms.stats.applied,
		IdleMs:   m.now().Sub(ms.lastUsed).Milliseconds(),
	}
}

// list returns every live session in creation order.
func (m *manager) list() SessionList {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := SessionList{Sessions: []SessionInfo{}}
	mss := make([]*managed, 0, len(m.sessions))
	for _, ms := range m.sessions {
		mss = append(mss, ms)
	}
	sort.Slice(mss, func(i, j int) bool { return mss[i].num < mss[j].num })
	for _, ms := range mss {
		out.Sessions = append(out.Sessions, *m.infoLocked(ms))
	}
	return out
}

// updateStats mutates a session's mu-guarded metadata (executor-side).
func (m *manager) updateStats(ms *managed, fn func(st *sessionStats)) {
	m.mu.Lock()
	fn(&ms.stats)
	m.mu.Unlock()
}

// size returns the live session count.
func (m *manager) size() (n int, draining bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions), m.draining
}
