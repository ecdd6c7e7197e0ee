// Package sim is a discrete-event simulator of an AFDX network: sporadic
// BAG-shaped sources, store-and-forward output ports with a constant
// technological latency and static-priority (default FIFO) queueing,
// optional per-VL ingress policing at switches, and per-path end-to-end
// delay measurement.
//
// The simulator produces achievable delays, i.e. lower bounds on the
// worst case; the analyses of internal/netcalc and internal/trajectory
// produce upper bounds. Tests assert the sandwich on every configuration
// exercised (with the documented exception of the grouped trajectory
// variant, whose published formulation is optimistic in corner cases —
// the simulator is precisely what exhibits that).
//
// Time is integer nanoseconds. With the paper's 100 Mb/s links one bit
// takes exactly 10 ns, so all Figure 2 scenarios simulate exactly.
package sim

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"

	"afdx/internal/afdx"
	"afdx/internal/core/tol"
	"afdx/internal/obs"
)

// SourceModel selects how emission instants are drawn.
type SourceModel int

const (
	// GreedySources emit a frame every BAG starting at the VL's offset:
	// the maximum load the traffic contract admits.
	GreedySources SourceModel = iota
	// PeriodicJitterSources emit every BAG with a small uniform random
	// delay added per frame (sporadic behaviour; still BAG-compliant
	// because the gap can only grow).
	PeriodicJitterSources
)

// Config parameterises one simulation run.
type Config struct {
	// Model selects the source behaviour.
	Model SourceModel
	// DurationUs is the simulated horizon in microseconds; sources stop
	// emitting after it (in-flight frames still drain).
	DurationUs float64
	// Seed drives random offsets, jitter, and frame sizes.
	Seed int64
	// OffsetsUs optionally pins the emission offset of specific VLs (in
	// microseconds); unpinned VLs draw a random offset in [0, BAG).
	OffsetsUs map[string]float64
	// RandomSizes draws each frame size uniformly in [s_min, s_max]
	// instead of always s_max.
	RandomSizes bool
	// JitterUs is the maximum per-frame emission jitter of
	// PeriodicJitterSources (finite, non-negative).
	JitterUs float64
	// Policing enables the ARINC 664 per-VL token-bucket filter at every
	// switch ingress; non-conformant frames are dropped and counted.
	Policing bool
	// PolicingSlackUs is the extra burst tolerance of the policer,
	// expressed as the time window of accumulated jitter it forgives
	// (finite, non-negative).
	PolicingSlackUs float64
	// PolicingRateFactor scales the rate the policer enforces relative
	// to the VL's declared contract (finite, non-negative; 1.0 when
	// zero). Values below 1 model a misconfigured filter or,
	// equivalently, a source emitting faster than its declared BAG —
	// the fault the ARINC 664 policing function exists to contain.
	PolicingRateFactor float64
	// RecordFrames additionally stores every delivered frame's delay per
	// path, in emission order (FIFO networks preserve per-VL order).
	// Needed by the redundancy-management combination.
	RecordFrames bool
	// BufferBits, when positive, bounds every output port's queue (the
	// frame in transmission excluded): a frame arriving at a full queue
	// is dropped and counted in Result.FramesOverflowed. Zero means
	// unbounded buffers. Dimensioning buffers with the Network Calculus
	// backlog bound guarantees zero overflow — the buffer-sizing use of
	// the analysis the paper describes in section II-B.
	BufferBits int64
	// BufferBitsPerPort overrides BufferBits for specific ports.
	BufferBitsPerPort map[afdx.PortID]int64
	// ScheduleUs replays an explicit emission schedule for the listed
	// VLs (instants in microseconds, ascending) instead of BAG-driven
	// emission — e.g. a recorded production trace. Replayed traffic is
	// NOT BAG-checked at the source; combine with Policing to study how
	// the network contains a contract-violating trace.
	ScheduleUs map[string][]float64
}

// DefaultConfig simulates 10 BAG hyperperiods of greedy sources with
// random offsets.
func DefaultConfig(seed int64) Config {
	return Config{
		Model:      GreedySources,
		DurationUs: 10 * 128 * 1000, // ten times the largest BAG
		Seed:       seed,
	}
}

// PathStats accumulates the delays observed on one (VL, destination) path.
type PathStats struct {
	Frames     int
	MaxDelayUs float64
	SumDelayUs float64
	MinDelayUs float64
}

// MeanDelayUs returns the average observed delay.
func (s PathStats) MeanDelayUs() float64 {
	if s.Frames == 0 {
		return 0
	}
	return s.SumDelayUs / float64(s.Frames)
}

// Result carries the outcome of one run.
type Result struct {
	Paths         map[afdx.PathID]PathStats
	FramesEmitted int
	FramesDropped int // by policing
	// MaxBacklogBits is the largest observed queue occupancy per port
	// (frames waiting, excluding the one in transmission) — comparable
	// to the Network Calculus backlog bound.
	MaxBacklogBits map[afdx.PortID]int64
	// FrameDelays holds per-frame delays in emission order when
	// Config.RecordFrames is set.
	FrameDelays map[afdx.PathID][]float64
	// FramesOverflowed counts frames dropped at full output-port buffers
	// (Config.BufferBits).
	FramesOverflowed int
}

// MaxDelayUs returns the largest delay observed on any path.
func (r *Result) MaxDelayUs() float64 {
	m := 0.0
	for _, s := range r.Paths {
		if s.MaxDelayUs > m {
			//detcheck:allow DET001: running max over float64 values is a comparison, not arithmetic — no rounding, so the result is iteration-order independent
			m = s.MaxDelayUs
		}
	}
	return m
}

// simulator is the run state.
type simulator struct {
	pg     *afdx.PortGraph
	cfg    Config
	rng    *rand.Rand
	events eventHeap
	seq    int64
	enqSeq int64
	ports  map[afdx.PortID]*portState
	// succ maps (VL, node) to the next nodes of the VL's tree.
	succ map[string]map[string][]string
	// destPath maps (VL, destination ES) to the path index.
	destPath map[string]map[string]int
	policer  map[policerKey]*tokenBucket
	res      *Result
	horizon  int64
}

type policerKey struct {
	vl, sw string
}

type tokenBucket struct {
	tokens   float64 // bits
	capacity float64
	rate     float64 // bits per ns
	lastNs   int64
}

func (tb *tokenBucket) conform(nowNs, bits int64) bool {
	tb.tokens = math.Min(tb.capacity, tb.tokens+float64(nowNs-tb.lastNs)*tb.rate)
	tb.lastNs = nowNs
	if tb.tokens+tol.EpsRel >= float64(bits) {
		tb.tokens -= float64(bits)
		return true
	}
	return false
}

// Run simulates the configuration and returns the observed delays.
func Run(pg *afdx.PortGraph, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), pg, cfg)
}

// RunCtx is Run with observability: when ctx carries an obs.Registry
// the run counts processed events and frame outcomes (the simulator is
// single-threaded and seed-driven, so the counts are deterministic);
// when it carries an obs.Tracer the run is wrapped in a "sim" span.
// Observation never influences the simulation.
func RunCtx(ctx context.Context, pg *afdx.PortGraph, cfg Config) (*Result, error) {
	_, span := obs.StartSpan(ctx, "sim")
	defer span.End()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	s := &simulator{
		pg:       pg,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		ports:    map[afdx.PortID]*portState{},
		succ:     map[string]map[string][]string{},
		destPath: map[string]map[string]int{},
		policer:  map[policerKey]*tokenBucket{},
		res: &Result{
			Paths:          map[afdx.PathID]PathStats{},
			MaxBacklogBits: map[afdx.PortID]int64{},
		},
		horizon: usToNs(cfg.DurationUs),
	}
	for id := range pg.Ports {
		s.ports[id] = &portState{}
	}
	for _, vl := range pg.Net.VLs {
		s.succ[vl.ID] = map[string][]string{}
		s.destPath[vl.ID] = map[string]int{}
		for pi, path := range vl.Paths {
			for k := 0; k+1 < len(path); k++ {
				next := path[k+1]
				if !contains(s.succ[vl.ID][path[k]], next) {
					s.succ[vl.ID][path[k]] = append(s.succ[vl.ID][path[k]], next)
				}
			}
			s.destPath[vl.ID][path[len(path)-1]] = pi
		}
		if sched, ok := cfg.ScheduleUs[vl.ID]; ok {
			// Replayed trace: every emission is scheduled up front and
			// the per-frame auto-renewal is disabled for this VL.
			for _, at := range sched {
				s.schedule(event{
					timeNs: usToNs(at),
					kind:   evArrive,
					node:   vl.Source,
					fr:     frame{vl: vl, emitNs: usToNs(at), bits: s.frameBits(vl), isEmit: true},
				})
			}
			continue
		}
		// First emission at the VL's offset.
		off, ok := cfg.OffsetsUs[vl.ID]
		if !ok {
			off = s.rng.Float64() * vl.BAGUs()
		}
		s.schedule(event{
			timeNs: usToNs(off),
			kind:   evArrive,
			node:   vl.Source,
			fr:     frame{vl: vl, emitNs: usToNs(off), bits: s.frameBits(vl), isEmit: true},
		})
	}
	events := int64(0)
	for s.events.Len() > 0 {
		ev := heap.Pop(&s.events).(event)
		s.process(ev)
		events++
	}
	for id, ps := range s.ports {
		s.res.MaxBacklogBits[id] = ps.maxBacklogBits
	}
	if reg := obs.RegistryFrom(ctx); reg != nil {
		delivered := 0
		for _, ps := range s.res.Paths {
			delivered += ps.Frames
		}
		reg.Counter("sim.events_processed", obs.Deterministic,
			"discrete events popped from the simulation heap").Add(events)
		reg.Counter("sim.frames_emitted", obs.Deterministic,
			"frames emitted by sources").Add(int64(s.res.FramesEmitted))
		reg.Counter("sim.frames_delivered", obs.Deterministic,
			"frame deliveries measured at destination end systems").Add(int64(delivered))
		reg.Counter("sim.frames_dropped", obs.Deterministic,
			"frames dropped by ingress policing").Add(int64(s.res.FramesDropped))
		reg.Counter("sim.frames_overflowed", obs.Deterministic,
			"frames dropped at full output-port buffers").Add(int64(s.res.FramesOverflowed))
	}
	return s.res, nil
}

func (s *simulator) frameBits(vl *afdx.VirtualLink) int64 {
	if s.cfg.RandomSizes && vl.SMaxBytes > vl.SMinBytes {
		return int64(vl.SMinBytes+s.rng.Intn(vl.SMaxBytes-vl.SMinBytes+1)) * 8
	}
	return int64(vl.SMaxBytes) * 8
}

func (s *simulator) schedule(ev event) {
	ev.seq = s.seq
	s.seq++
	heap.Push(&s.events, ev)
}

func (s *simulator) process(ev event) {
	switch ev.kind {
	case evArrive:
		s.arrive(ev)
	case evReady:
		s.ready(ev)
	case evDone:
		s.done(ev)
	}
}

// arrive handles a frame fully received at a node: emission bookkeeping,
// delivery measurement, policing, and fan-out into the node's output
// ports (technological latency first, hence the evReady indirection).
func (s *simulator) arrive(ev event) {
	if ev.fr.isEmit {
		if _, replayed := s.cfg.ScheduleUs[ev.fr.vl.ID]; !replayed {
			next := ev.timeNs + usToNs(ev.fr.vl.BAGUs())
			if s.cfg.Model == PeriodicJitterSources && s.cfg.JitterUs > 0 {
				next += usToNs(s.rng.Float64() * s.cfg.JitterUs)
			}
			if next < s.horizon {
				s.schedule(event{
					timeNs: next,
					kind:   evArrive,
					node:   ev.fr.vl.Source,
					fr:     frame{vl: ev.fr.vl, emitNs: next, bits: s.frameBits(ev.fr.vl), isEmit: true},
				})
			}
		}
		s.res.FramesEmitted++
	}

	if s.pg.Net.IsEndSystem(ev.node) && ev.node != ev.fr.vl.Source {
		pi, ok := s.destPath[ev.fr.vl.ID][ev.node]
		if !ok {
			return
		}
		pid := afdx.PathID{VL: ev.fr.vl.ID, PathIdx: pi}
		st := s.res.Paths[pid]
		d := nsToUs(ev.timeNs - ev.fr.emitNs)
		if st.Frames == 0 || d < st.MinDelayUs {
			st.MinDelayUs = d
		}
		if d > st.MaxDelayUs {
			st.MaxDelayUs = d
		}
		st.SumDelayUs += d
		st.Frames++
		s.res.Paths[pid] = st
		if s.cfg.RecordFrames {
			if s.res.FrameDelays == nil {
				s.res.FrameDelays = map[afdx.PathID][]float64{}
			}
			s.res.FrameDelays[pid] = append(s.res.FrameDelays[pid], d)
		}
		return
	}

	if s.cfg.Policing && s.pg.Net.IsSwitch(ev.node) {
		if !s.police(ev) {
			s.res.FramesDropped++
			return
		}
	}

	for _, next := range s.succ[ev.fr.vl.ID][ev.node] {
		portID := afdx.PortID{From: ev.node, To: next}
		port := s.pg.Ports[portID]
		fr := ev.fr
		fr.isEmit = false
		s.schedule(event{
			timeNs: ev.timeNs + usToNs(port.LatencyUs),
			kind:   evReady,
			port:   portID,
			node:   next,
			fr:     fr,
		})
	}
}

// ready enqueues a frame at its output port (dropping it when the
// port's buffer is full) and starts service if idle.
func (s *simulator) ready(ev event) {
	ps := s.ports[ev.port]
	if limit := s.bufferCapacity(ev.port); limit > 0 && ps.backlogBits+ev.fr.bits > limit {
		s.res.FramesOverflowed++
		return
	}
	s.enqSeq++
	ps.push(queued{fr: ev.fr, priority: ev.fr.vl.Priority, enq: s.enqSeq, next: ev.node})
	if !ps.busy {
		s.startNext(ev.port, ev.timeNs)
	}
}

// bufferCapacity returns the configured buffer size of a port in bits
// (0 = unbounded).
func (s *simulator) bufferCapacity(id afdx.PortID) int64 {
	if c, ok := s.cfg.BufferBitsPerPort[id]; ok {
		return c
	}
	return s.cfg.BufferBits
}

// done completes a transmission: the frame arrives at the next node and
// the port picks the next queued frame (highest priority first).
func (s *simulator) done(ev event) {
	ps := s.ports[ev.port]
	served := ps.serving
	ps.busy = false
	s.schedule(event{timeNs: ev.timeNs, kind: evArrive, node: served.next, fr: served.fr})
	if ps.queue.Len() > 0 {
		s.startNext(ev.port, ev.timeNs)
	}
}

// startNext dequeues and starts transmitting the next frame.
func (s *simulator) startNext(id afdx.PortID, nowNs int64) {
	ps := s.ports[id]
	ps.serving = ps.pop()
	ps.busy = true
	rate := s.pg.Ports[id].RateBitsPerUs
	s.schedule(event{
		timeNs: nowNs + transmitNs(ps.serving.fr.bits, rate),
		kind:   evDone,
		port:   id,
	})
}

// police applies the per-VL token bucket of the ingress switch.
func (s *simulator) police(ev event) bool {
	key := policerKey{vl: ev.fr.vl.ID, sw: ev.node}
	tb := s.policer[key]
	if tb == nil {
		factor := s.cfg.PolicingRateFactor
		if factor == 0 {
			factor = 1
		}
		rate := factor * ev.fr.vl.RhoBitsPerUs() / 1000 // bits per ns
		tb = &tokenBucket{
			capacity: ev.fr.vl.SMaxBits() + rate*float64(usToNs(s.cfg.PolicingSlackUs)),
			rate:     rate,
			lastNs:   ev.timeNs,
		}
		tb.tokens = tb.capacity
		s.policer[key] = tb
	}
	return tb.conform(ev.timeNs, ev.fr.bits)
}

// check rejects the numeric settings the simulator cannot honour: a
// horizon that is not positive or not representable in int64
// nanoseconds, and negative or non-finite jitter and policer settings.
// Every comparison with NaN is false, so each test is written to fail
// on NaN.
func (cfg Config) check() error {
	if !(cfg.DurationUs > 0) {
		return fmt.Errorf("sim: DurationUs must be positive, got %g us", cfg.DurationUs)
	}
	if !(cfg.DurationUs*1000 < math.MaxInt64) {
		return fmt.Errorf("sim: DurationUs %g us does not fit in int64 nanoseconds", cfg.DurationUs)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"JitterUs", cfg.JitterUs}, {"PolicingSlackUs", cfg.PolicingSlackUs}, {"PolicingRateFactor", cfg.PolicingRateFactor}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("sim: %s must be finite and non-negative, got %g", f.name, f.v)
		}
	}
	return nil
}

func usToNs(us float64) int64 { return int64(math.Round(us * 1000)) }
func nsToUs(ns int64) float64 { return float64(ns) / 1000 }

// transmitNs is the wire time of a frame: bits / rate. With rate in
// bits/us this is bits*1000/rate ns, exact for the 100 Mb/s case.
func transmitNs(bits int64, rateBitsPerUs float64) int64 {
	return int64(math.Round(float64(bits) * 1000 / rateBitsPerUs))
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
