package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one remote request
// share Req. A span with Busy > 0 is aggregated: it stands for many
// short calls between Start and End (the sink chain is called
// thousands of times per scenario) whose summed duration is Busy.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// handle is an open span; a nil handle (untraced) ignores every call.
type handle struct {
	t *tracer
	s span
}

// begin opens a span under parent (0 = root).
func (t *tracer) begin(name string, parent int64, req string) *handle {
	if t == nil {
		return nil
	}
	return &handle{t: t, s: span{ID: t.ids.Add(1), Parent: parent, Name: name, Req: req, Start: t.now()}}
}

func (h *handle) id() int64 {
	if h == nil {
		return 0
	}
	return h.s.ID
}

// end closes and records the span.
func (h *handle) end() {
	if h == nil {
		return
	}
	h.s.End = h.t.now()
	h.t.add(h.s)
}

// aggregate records an aggregated child span of parent.
func (t *tracer) aggregate(name string, parent int64, start, end, busy int64) {
	if t == nil || busy <= 0 {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Name: name, Start: start, End: end, Busy: busy})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes the spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums each span name's self time: the span's duration
// minus the part of it that its children cover. Overlapping children
// (parallel work under one parent) cover their union once; aggregated
// children cover their Busy time. An aggregated span's own self time
// is its Busy time.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		own := s.Busy
		if own == 0 {
			own = s.End - s.Start - covered(s, kids[s.ID])
		}
		if own > 0 {
			out[s.Name] += time.Duration(own)
		}
	}
	return out
}

// covered is how much of p's interval its children account for.
func covered(p span, kids []span) int64 {
	var iv [][2]int64
	var busy int64
	for _, k := range kids {
		if k.Busy > 0 {
			busy += k.Busy
			continue
		}
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return min(sum+busy, p.End-p.Start)
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// layerShares is each layer's share of the summed self time of all
// spans, which is the traced run's end-to-end busy total.
func layerShares(self map[string]time.Duration) map[string]float64 {
	var total time.Duration
	by := map[string]time.Duration{}
	for name, d := range self {
		by[layerOf(name)] += d
		total += d
	}
	out := map[string]float64{}
	for l, d := range by {
		if total > 0 {
			out[l] = float64(d) / float64(total)
		}
	}
	return out
}
