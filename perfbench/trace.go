package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed layer call recorded by the benchmark's own code,
// around a call into the program. Parent is 0 for a root span.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"` // since the tracer started
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them once the run ends. A
// disabled tracer records nothing, so untraced runs pay one branch per
// call site.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// record stores a finished span and returns its id (0 when disabled).
func (t *tracer) record(parent int, name string, start time.Time, dur time.Duration, attrs map[string]any) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: int64(start.Sub(t.t0)), DurNS: int64(dur), Attrs: attrs,
	})
	return id
}

// time runs fn inside a span and returns fn's wall time.
func (t *tracer) time(parent int, name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.record(parent, name, start, d, nil)
	return d
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
