package sim

import (
	"math"
	"strconv"

	"repro/internal/obs"
)

// Simulator timeline observability: the per-step simulated-width histogram
// is always registered; sim.timeline.dropped counts events an engine run
// produced beyond its preallocated buffer (the buffer drops rather than
// grows so traced steps stay allocation-free).
var (
	stepWidthHist   = obs.NewHistogram("sim.step.dt.ns")
	timelineDropped = obs.NewCounter("sim.timeline.dropped")
)

// simNS converts simulated seconds to the timeline's integer nanoseconds.
func simNS(t float64) int64 { return int64(t * 1e9) }

// engineDeep is the per-run deep-observability scratch: the event buffer a
// traced run fills and per-worker bookkeeping (current unit's start time
// and accumulated bytes, last emitted grant). Everything is sized at
// construction and emit drops on overflow, so a traced step performs zero
// heap allocations just like an untraced one (TestEngineStepAllocs pins
// both). A nil *engineDeep disables the whole layer — the engine's hot
// loop pays one nil check.
type engineDeep struct {
	tl      *obs.Timeline
	events  []obs.Event
	dropped int64
	baseNS  int64 // added to every timestamp (serial runs offset the hot leg)

	tracks    []int32   // timeline track per worker (nil when tl is nil)
	unitStart []float64 // simulated second the worker's current unit began
	bytesAcc  []float64 // bytes the worker moved during the current unit
	prevGrant []float64 // last grant emitted as an EvGrant sample

	// grantLeft is the remaining EvGrant budget (grantBudget at the start of
	// a run). A bandwidth-saturated run reshuffles every worker's grant on
	// nearly every step; unbounded sampling would crowd the unit slices out
	// of the event buffer and pay an O(workers) scan per step for events
	// destined to be dropped. The budget keeps the early grant dynamics and
	// then turns the scan off.
	grantLeft   int
	grantBudget int

	stepWidth obs.LocalHist // simulated step widths, merged into stepWidthHist
}

// newEngineDeep sizes the scratch for one run over the given pools. tl may
// be nil: then only the step-width histogram is collected (the DeepTiming
// mode -trace enables without -timeline).
func newEngineDeep(tl *obs.Timeline, label string, pools []*pool) *engineDeep {
	workers, units := 0, 0
	for _, p := range pools {
		workers += p.workers
		units += len(p.units)
	}
	d := &engineDeep{tl: tl}
	if tl != nil {
		// Exactly one EvWorkerRun per unit and one EvWorkerIdle per worker,
		// plus the bounded grant samples: sized so the essential events are
		// never dropped.
		d.grantBudget = 2*units + 8*workers
		d.grantLeft = d.grantBudget
		d.events = make([]obs.Event, 0, units+workers+d.grantBudget+64)
		d.tracks = make([]int32, 0, workers)
		for _, p := range pools {
			for w := 0; w < p.workers; w++ {
				d.tracks = append(d.tracks, tl.TrackID(trackLabel(label, p.name, w)))
			}
		}
		d.unitStart = make([]float64, workers)
		d.bytesAcc = make([]float64, workers)
		d.prevGrant = make([]float64, workers)
	}
	return d
}

// trackLabel names one simulated worker's timeline row.
func trackLabel(label, poolName string, w int) string {
	s := poolName + "/w" + strconv.Itoa(w)
	if label != "" {
		s = label + "/" + s
	}
	return s
}

// reset prepares the scratch for another run over the same pool shapes,
// reusing every buffer (the benchmark separates steady-state tracing cost
// from construction cost this way).
func (d *engineDeep) reset() {
	d.grantLeft = d.grantBudget
	d.events = d.events[:0]
	d.dropped = 0
	d.baseNS = 0
	for i := range d.unitStart {
		d.unitStart[i] = 0
		d.bytesAcc[i] = 0
		d.prevGrant[i] = 0
	}
	d.stepWidth = obs.LocalHist{}
}

// emit buffers one event, dropping when the preallocated buffer is full.
func (d *engineDeep) emit(ev obs.Event) {
	if len(d.events) < cap(d.events) {
		d.events = append(d.events, ev)
	} else {
		d.dropped++
	}
}

// unitDone records one completed unit as an EvWorkerRun slice and resets
// the worker's accumulation for the next unit.
func (d *engineDeep) unitDone(wi int, unitIdx int, now float64) {
	if d.tl == nil {
		return
	}
	d.emit(obs.Event{
		TS:    d.baseNS + simNS(d.unitStart[wi]),
		Dur:   simNS(now) - simNS(d.unitStart[wi]),
		Track: d.tracks[wi],
		Kind:  obs.EvWorkerRun,
		Arg:   int64(unitIdx),
		Value: d.bytesAcc[wi],
	})
	d.unitStart[wi] = now
	d.bytesAcc[wi] = 0
}

// idle records the instant a worker's pool queue ran dry.
func (d *engineDeep) idle(wi int, now float64) {
	if d.tl == nil {
		return
	}
	d.emit(obs.Event{TS: d.baseNS + simNS(now), Track: d.tracks[wi], Kind: obs.EvWorkerIdle})
}

// sampleGrants emits an EvGrant for every active worker whose grant
// changed since the last sample. Bit comparison, not float equality: the
// question is "did the stored value change", where NaN/-0 subtleties and
// the floateq lint both point at Float64bits.
func (d *engineDeep) sampleGrants(e *engine) {
	if d.tl == nil || d.grantLeft <= 0 {
		return
	}
	for _, wi := range e.active {
		g := e.workers[wi].grant
		if math.Float64bits(d.prevGrant[wi]) == math.Float64bits(g) {
			continue
		}
		d.prevGrant[wi] = g
		d.emit(obs.Event{TS: d.baseNS + simNS(e.now), Track: d.tracks[wi], Kind: obs.EvGrant, Value: g})
		if d.grantLeft--; d.grantLeft == 0 {
			// Budget exhausted: count one drop so the truncation is visible.
			d.dropped++
			return
		}
	}
}

// finish flushes the buffered events to the timeline and folds the local
// step-width histogram into the global one.
func (d *engineDeep) finish() {
	if d == nil {
		return
	}
	stepWidthHist.Merge(&d.stepWidth)
	if d.tl != nil && len(d.events) > 0 {
		d.tl.Append(d.events...)
	}
	if d.dropped > 0 {
		timelineDropped.Add(d.dropped)
	}
}
