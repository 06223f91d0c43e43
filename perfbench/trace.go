package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Name is "<layer>.<call>"; the layer is what
// self time is summed under. Req is the request id a client request span
// and the handler span the server recorded for it share.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// active is an open span.
type active struct {
	t     *tracer
	id    uint64
	sp    span
	start time.Time
}

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent, req uint64) active {
	if t == nil {
		return active{}
	}
	now := time.Now()
	id := t.ids.Add(1)
	return active{t: t, id: id, start: now, sp: span{
		ID: id, Parent: parent, Req: req, Name: name, Start: int64(now.Sub(t.origin)),
	}}
}

// startRequest opens a root span for one client request; its own id is
// the request id, which the handler span shares.
func (t *tracer) startRequest(name string) active {
	a := t.start(name, 0, 0)
	a.sp.Req = a.id
	return a
}

// end closes the span.
func (a active) end() {
	if a.t == nil {
		return
	}
	a.sp.End = int64(time.Since(a.t.origin))
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.sp)
	a.t.mu.Unlock()
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of it that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// selfLayers are the layers of the workload's own call path, whose self
// times add up to the time under its bench.* root spans.
var selfLayers = []string{"bench", "scanner", "core", "report", "wal", "serve"}

// handlerSpan is the server side of a request; it runs beside the write
// path, so its self time is reported apart from the serve layer's.
const handlerSpan = "serve.handler"

// report adds the per-layer self times per unit of work, the time under
// bench.* roots per unit, and the span count.
func (t *tracer) report(rep *childReport, units int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	per := float64(max(units, 1))
	var requests, write []span
	var roots time.Duration
	for _, s := range spans {
		switch {
		case s.Name == handlerSpan || layerOf(s.Name) == "client":
			requests = append(requests, s)
		default:
			write = append(write, s)
			if s.Parent == 0 {
				roots += time.Duration(s.End - s.Start)
			}
		}
	}
	self := selfTimes(write)
	for _, layer := range selfLayers {
		rep.set(layer+".self_s", self[layer].Seconds()/per)
	}
	reqSelf := selfTimes(requests)
	rep.set("client.self_s", reqSelf["client"].Seconds()/per)
	rep.set("serve.handler_self_s", reqSelf["serve"].Seconds()/per)
	rep.set("trace.write_path_s", roots.Seconds()/per)
	rep.set("trace.spans", float64(len(spans)))
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
