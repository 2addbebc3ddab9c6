package main

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a client request or a layer call the
// benchmark makes. Spans of one operation share Req; Parent is the ID of
// the span that caused this one (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
}

func (s span) durMs() float64 { return s.End - s.Start }

// layer is the module a span belongs to: the part of its name before the
// first dot ("store.begin" → "store").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	on    atomic.Bool

	mu    sync.Mutex
	spans []span

	// current is the operation the single writing client has in flight.
	// The store decorator runs inside the server, where it cannot see
	// request ids, so it parents its spans here.
	current atomic.Pointer[active]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// active is a span that has begun and not yet ended.
type active struct {
	t      *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
	ingest bool
}

// enabled reports whether spans are being recorded right now.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newReq returns a fresh request id.
func (t *tracer) newReq() int64 {
	if !t.enabled() {
		return 0
	}
	return t.reqs.Add(1)
}

// begin opens a span. parent may be nil for a root span, whose request id
// is then req.
func (t *tracer) begin(name string, parent *active, req int64) *active {
	if !t.enabled() {
		return nil
	}
	a := &active{t: t, id: t.ids.Add(1), req: req, name: name, start: time.Now()}
	if parent != nil {
		a.parent, a.req = parent.id, parent.req
	}
	return a
}

// beginOp opens a root span for one client operation with a fresh
// request id.
func (t *tracer) beginOp(name string) *active {
	return t.begin(name, nil, t.newReq())
}

// end closes the span and records it.
func (a *active) end() {
	if a == nil {
		return
	}
	a.t.record(a, time.Now())
}

func (t *tracer) record(a *active, end time.Time) {
	s := span{
		ID: a.id, Parent: a.parent, Req: a.req, Name: a.name,
		Start: float64(a.start.Sub(t.epoch)) / float64(time.Millisecond),
		End:   float64(end.Sub(t.epoch)) / float64(time.Millisecond),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setCurrent marks a as the writer's in-flight operation (nil clears it).
func (t *tracer) setCurrent(a *active) {
	if t != nil {
		t.current.Store(a)
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in milliseconds: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap each other (parallel calls); their union is subtracted once.
func selfTimes(spans []span) map[int64]float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.durMs() - coveredMs(s, children[s.ID])
	}
	return out
}

// coveredMs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredMs(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByLayer sums self time per layer.
func selfByLayer(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += self[s.ID]
	}
	return out
}

// durations returns the durations (ms) of the spans named name whose
// parent span is named parent ("" for root spans).
func durations(spans []span, name, parent string) []float64 {
	names := map[int64]string{}
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && names[s.Parent] == parent {
			out = append(out, s.durMs())
		}
	}
	return out
}
