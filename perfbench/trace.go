package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"earthplus/internal/raster"
	"earthplus/internal/scene"
	"earthplus/internal/sim"
)

// span is one traced call into a layer. Times are nanoseconds from the
// tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: the sim engine calls the system from several workers.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	t.recordAs(t.reserve(), name, parent, start, end)
}

// reserve hands out an id for a span that is recorded later with
// recordAs, so children can name their parent while it is still open.
func (t *tracer) reserve() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

func (t *tracer) recordAs(id int64, name string, parent int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children's intervals cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// writeTrace writes the spans and the per-name self times as one JSON
// document under dir.
func writeTrace(dir, file string, spans []span) error {
	selfSec := map[string]float64{}
	for n, d := range selfTimes(spans) {
		selfSec[n] = d.Seconds()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"self_s": selfSec, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), data, 0o644)
}

// visitKey names one (location, day, satellite) capture.
type visitKey struct{ loc, day, sat int }

// probedSystem wraps the system under test. Untraced, it only times the
// calls the end-to-end metrics need (bootstrap, each capture, each day
// end); traced, it also records a span per call, under the run's span.
type probedSystem struct {
	sim.System
	tr      *tracer // nil when untraced
	runSpan int64

	mu        sync.Mutex
	bootstrap time.Duration
	bootEnd   time.Time      // when the last Bootstrap call returned
	busy      [][2]time.Time // OnCapture and OnDayEnd intervals
	capture   map[visitKey]time.Duration
	dayEnd    time.Duration
}

func newProbe(sys sim.System, tr *tracer, runSpan int64) *probedSystem {
	return &probedSystem{System: sys, tr: tr, runSpan: runSpan, capture: map[visitKey]time.Duration{}}
}

func (p *probedSystem) Bootstrap(c *scene.Capture) error {
	t0 := time.Now()
	err := p.System.Bootstrap(c)
	t1 := time.Now()
	p.mu.Lock()
	p.bootstrap += t1.Sub(t0)
	p.bootEnd = t1
	p.mu.Unlock()
	if p.tr != nil {
		p.tr.record("core.bootstrap", p.runSpan, t0, t1)
	}
	return err
}

func (p *probedSystem) OnCapture(c *scene.Capture) (sim.Outcome, error) {
	t0 := time.Now()
	out, err := p.System.OnCapture(c)
	t1 := time.Now()
	p.mu.Lock()
	p.busy = append(p.busy, [2]time.Time{t0, t1})
	p.capture[visitKey{c.Loc, c.Day, c.Sat}] = t1.Sub(t0)
	p.mu.Unlock()
	if p.tr != nil {
		p.tr.record("core.on_capture", p.runSpan, t0, t1)
	}
	return out, err
}

func (p *probedSystem) OnDayEnd(day int) (int64, error) {
	t0 := time.Now()
	up, err := p.System.OnDayEnd(day)
	t1 := time.Now()
	p.mu.Lock()
	p.busy = append(p.busy, [2]time.Time{t0, t1})
	p.dayEnd += t1.Sub(t0)
	p.mu.Unlock()
	if p.tr != nil {
		p.tr.record("sim.day_end", p.runSpan, t0, t1)
	}
	return up, err
}

// ContactLog forwards sim.ContactReporter: without it RunStream would
// drop the contact log of a constellation-model system.
func (p *probedSystem) ContactLog() []sim.ContactRecord {
	if cr, ok := p.System.(sim.ContactReporter); ok {
		return cr.ContactLog()
	}
	return nil
}

// busySeconds is the length of the union of the system's call intervals:
// the time at least one capture or day end was in progress.
func (p *probedSystem) busySeconds() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.busy) == 0 {
		return 0
	}
	base := p.busy[0][0]
	iv := make([]span, len(p.busy))
	lo, hi := int64(0), int64(0)
	for i, b := range p.busy {
		iv[i] = span{Start: b[0].Sub(base).Nanoseconds(), End: b[1].Sub(base).Nanoseconds()}
		lo, hi = min(lo, iv[i].Start), max(hi, iv[i].End)
	}
	return time.Duration(covered(span{Start: lo, End: hi}, iv)).Seconds()
}

// visitLog is the traced run's sim.Observer: it notes which visits the
// engine scored, so the harness replay can time the same PSNR calls.
// Locations call it concurrently, hence the lock.
type visitLog struct {
	mu     sync.Mutex
	scored []visitKey
}

func (v *visitLog) ObserveVisit(rec *sim.Record, _ *scene.Capture, _ *raster.Image, _ raster.TileGrid) {
	v.mu.Lock()
	v.scored = append(v.scored, visitKey{rec.Loc, rec.Day, rec.Sat})
	v.mu.Unlock()
}
