package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark call into a layer: which call, when it ran, the
// span that caused it, and the page it was about when there is one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	OID    int64  `json:"oid,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the one traced run. A nil *tracer is
// the untraced mode: every method is a no-op, so end-to-end runs pay one
// nil check per wrapped call and nothing else.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span; the returned func closes and records it.
func (t *tracer) begin(name string, parent, oid int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id = int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, OID: oid})
	t.mu.Unlock()
	return id, func() {
		stop := time.Since(t.epoch).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = stop
		t.mu.Unlock()
	}
}

// byName returns the closed spans with the given name.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and counts the spans with the given name.
func (t *tracer) total(name string) (time.Duration, int) {
	var d time.Duration
	ss := t.byName(name)
	for _, s := range ss {
		d += s.dur()
	}
	return d, len(ss)
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
