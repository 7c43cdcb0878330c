// Package obs is the observability substrate shared by the mining
// engine, the shard coordinator, and the serving daemon: a lightweight
// trace/span facility, fixed-boundary latency histograms, and
// request-ID plumbing.
//
// The design constraint, pinned by the refguard tests, is that tracing
// changes timing VISIBILITY, never bytes: instrumented code paths must
// produce byte-identical mining output whether a real Trace or the
// no-op tracer is attached. The facility therefore records only wall
// times and counters — it never touches pattern data — and the no-op
// path costs one interface call and zero allocations (Nop returns a
// nil *Span, and every *Span method is nil-receiver safe).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Tracer hands out spans. The two implementations are *Trace (records)
// and Nop (discards); mining code holds a Tracer and never needs to
// know which it has.
type Tracer interface {
	// Start opens a span. The returned *Span may be nil (the no-op
	// tracer); all *Span methods tolerate a nil receiver, so callers
	// chain Tag/End unconditionally.
	Start(name string) *Span
}

// Nop is the zero-cost default tracer: Start returns a nil *Span whose
// methods all no-op.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Start(string) *Span { return nil }

// Default returns tr, or Nop when tr is nil, so option structs can
// leave the field unset.
func Default(tr Tracer) Tracer {
	if tr == nil {
		return Nop
	}
	return tr
}

// Trace is a recording Tracer: an append-only list of completed spans
// with offsets relative to the trace's start. Safe for concurrent use
// — parallel mining stages open and close spans from worker
// goroutines.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	spans []SpanData
}

// NewTrace returns an empty recording trace anchored at now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Start opens a recording span.
func (t *Trace) Start(name string) *Span {
	return &Span{t: t, name: name, start: time.Now()}
}

func (t *Trace) add(s SpanData) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Snapshot returns the completed spans in completion order.
func (t *Trace) Snapshot() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// SpanData is one completed span: a name, when it started relative to
// the trace, how long it ran, and optional key/value tags. Attrs values
// are string or int64 only, so the JSON rendering is deterministic.
type SpanData struct {
	Name       string         `json:"name"`
	StartUs    int64          `json:"start_us"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Span is an open interval being timed. A nil *Span is the valid no-op
// span; every method checks the receiver so instrumentation sites never
// branch on whether tracing is live.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	attrs map[string]any
}

// Tag attaches a string attribute and returns the span for chaining.
func (s *Span) Tag(key, val string) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = val
	return s
}

// TagInt attaches an integer attribute and returns the span for
// chaining.
func (s *Span) TagInt(key string, val int64) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = val
	return s
}

// End closes the span and records it on its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.t.add(SpanData{
		Name:       s.name,
		StartUs:    s.start.Sub(s.t.start).Microseconds(),
		DurationUs: end.Sub(s.start).Microseconds(),
		Attrs:      s.attrs,
	})
}

// Graft appends externally recorded spans — a worker's, decoded from
// an RPC response — onto t, rebasing their offsets against base (the
// moment THIS process started the exchange, on this process's clock).
// The foreign spans carry offsets relative to their own trace's start,
// never absolute wall times, so clock skew between the two processes
// cannot surface in the stitched tree; defensive clamping additionally
// guarantees no grafted span ever has a negative start or duration,
// even when the remote side sends garbage.
func (t *Trace) Graft(spans []SpanData, base time.Time) {
	if t == nil || len(spans) == 0 {
		return
	}
	baseUs := base.Sub(t.start).Microseconds()
	if baseUs < 0 {
		baseUs = 0
	}
	t.mu.Lock()
	for _, s := range spans {
		if s.StartUs < 0 {
			s.StartUs = 0
		}
		if s.DurationUs < 0 {
			s.DurationUs = 0
		}
		s.StartUs += baseUs
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	requestIDKey
)

// NewContext returns ctx carrying tr, the conventional way a tracer
// crosses package boundaries (HTTP handler → engine → runner → RPC).
func NewContext(ctx context.Context, tr Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, tr)
}

// FromContext returns the tracer carried by ctx, or Nop when none is.
func FromContext(ctx context.Context) Tracer {
	if tr, ok := ctx.Value(tracerKey).(Tracer); ok && tr != nil {
		return tr
	}
	return Nop
}

// TraceFromContext returns the recording trace carried by ctx, or nil
// when the context carries no tracer or only the no-op one. The shard
// runner uses this to ask workers for their spans only when a request
// is being traced, and to graft them into that trace.
func TraceFromContext(ctx context.Context) *Trace {
	tr, _ := ctx.Value(tracerKey).(*Trace)
	return tr
}

// RequestIDHeader is the HTTP header carrying a request's ID; the
// daemon echoes it and the coordinator forwards it on worker RPCs so
// one query is greppable across the fleet.
const RequestIDHeader = "X-Request-Id"

// WithRequestID returns ctx carrying id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-digit random request ID.
func NewRequestID() string {
	var b [8]byte
	rand.Read(b[:]) // never fails on supported platforms
	return hex.EncodeToString(b[:])
}
