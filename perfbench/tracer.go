package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it calls. Spans nest on a single goroutine, so a
// span's self time is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap bytes allocated process-wide during the span
	alloc0 uint64
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced passes share the traced code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named "<layer>.<operation>" under parent (-1 for
// none) and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, alloc0: allocBytes(), Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	s.Alloc = allocBytes() - s.alloc0
}

// self holds one span name's totals with its children subtracted.
type self struct {
	count int
	ns    int64
	alloc int64
}

// spanTotals maps a span name to its totals.
type spanTotals map[string]*self

// of returns name's totals, zero when no span of that name ran.
func (t spanTotals) of(name string) self {
	if s := t[name]; s != nil {
		return *s
	}
	return self{}
}

// selfTimes aggregates self time and self allocation per span name.
func (t *tracer) selfTimes() spanTotals {
	childNS := make([]int64, len(t.spans))
	childAlloc := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += int64(s.Alloc)
		}
	}
	out := spanTotals{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &self{}
			out[s.Name] = a
		}
		a.count++
		a.ns += s.End - s.Start - childNS[i]
		a.alloc += int64(s.Alloc) - childAlloc[i]
	}
	return out
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time per layer, in span-name order for stable
// printing.
func layerSelf(st spanTotals) (layers []string, ns map[string]int64) {
	ns = map[string]int64{}
	for name, s := range st {
		ns[layerOf(name)] += s.ns
	}
	for l := range ns {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return layers, ns
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
