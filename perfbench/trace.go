package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"skinnymine"
)

// span is one timed call the benchmark made into a layer. Spans are
// recorded by the benchmark's own code around public calls; the
// program's own stage spans (Options.Trace) are attached as children
// of the call that produced them.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0: top level
	Name    string         `json:"name"`
	StartUs int64          `json:"start_us"`
	EndUs   int64          `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(parent int, name string) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, StartUs: time.Since(l.t0).Microseconds()})
	return len(l.spans)
}

func (l *spanLog) finish(id int, attrs map[string]any) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndUs = time.Since(l.t0).Microseconds()
	l.spans[id-1].Attrs = attrs
}

// attach adds the program's stage spans (skinnymine.Trace) under
// parent; their offsets are relative to base, when the traced call
// started.
func (l *spanLog) attach(parent int, base time.Time, ts []skinnymine.TraceSpan) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	off := base.Sub(l.t0).Microseconds()
	for _, t := range ts {
		l.spans = append(l.spans, span{
			ID: len(l.spans) + 1, Parent: parent, Name: "program." + t.Name,
			StartUs: off + t.StartUs, EndUs: off + t.StartUs + t.DurationUs, Attrs: t.Attrs,
		})
	}
}

// timed runs fn inside a span and returns its wall time.
func (r *run) timed(parent int, name string, fn func() error) (time.Duration, error) {
	id := r.spans.start(parent, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.spans.finish(id, nil)
	return d, err
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Spans      []span            `json:"spans"`
	SelfUs     map[string]int64  `json:"self_us_by_name"`
	Profile    *profileReport    `json:"profile,omitempty"`
	Unmeasured map[string]string `json:"unmeasured,omitempty"`
}

// selfTimes sums, per span name, each span's duration minus the part
// its children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndUs - s.StartUs
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += max(0, s.EndUs-s.StartUs-child[s.ID])
	}
	return out
}

func (r *run) writeTrace() error {
	dir := filepath.Join(r.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := r.spans.spans
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	body, err := json.MarshalIndent(traceFile{
		Workload: r.workload, Seed: r.seed, Spans: spans, SelfUs: selfTimes(spans),
		Profile: r.prof, Unmeasured: r.unmeasured,
	}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	r.note("trace written to %s (%d spans)", path, len(spans))
	return os.WriteFile(path, body, 0o644)
}
