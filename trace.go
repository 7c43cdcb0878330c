package skinnymine

import (
	"skinnymine/internal/obs"
	"skinnymine/internal/shard"
)

// Trace records the spans of one mining request: per-level Stage I
// timings (edge, concatenation and merge candidate generation), the
// cross-shard support recount, Stage II growth, and — on a distributed
// index — every worker RPC with its retry/hedge outcome. Attach one to
// a request via Options.Trace, mine, then read Spans.
//
// Tracing is observation only: a traced request returns byte-identical
// results to an untraced one (pinned by TestTraceDoesNotChangeResults).
// A Trace is safe for concurrent use by the mining workers but should
// not be shared across requests — spans from both would interleave.
type Trace struct {
	t *obs.Trace
}

// NewTrace returns an empty trace ready to attach to Options.Trace.
func NewTrace() *Trace { return &Trace{t: obs.NewTrace()} }

// TraceSpan is one completed span: a named timed region with integer
// or string attributes (level, candidate counts, RPC outcome, ...).
// StartUs is the offset from the trace's first span start.
type TraceSpan struct {
	Name       string         `json:"name"`
	StartUs    int64          `json:"start_us"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Spans returns the completed spans in completion order. Calling it
// mid-request is safe and returns the spans finished so far.
func (t *Trace) Spans() []TraceSpan {
	if t == nil || t.t == nil {
		return nil
	}
	raw := t.t.Snapshot()
	out := make([]TraceSpan, len(raw))
	for i, s := range raw {
		out[i] = TraceSpan{Name: s.Name, StartUs: s.StartUs, DurationUs: s.DurationUs, Attrs: s.Attrs}
	}
	return out
}

// LatencyBucket is one cumulative histogram bucket: the count of
// samples at or below LeMs milliseconds.
type LatencyBucket struct {
	LeMs  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// LatencySnapshot is a point-in-time latency histogram: total count,
// sum and max in milliseconds, plus cumulative fixed-boundary buckets
// (Prometheus le semantics; the implicit +Inf bucket equals Count).
type LatencySnapshot struct {
	Count   int64           `json:"count"`
	SumMs   float64         `json:"sum_ms"`
	MaxMs   float64         `json:"max_ms"`
	Buckets []LatencyBucket `json:"buckets"`
}

func latencySnapshot(s obs.HistogramSnapshot) LatencySnapshot {
	out := LatencySnapshot{Count: s.Count, SumMs: s.SumMs, MaxMs: s.MaxMs,
		Buckets: make([]LatencyBucket, len(s.Buckets))}
	for i, b := range s.Buckets {
		out.Buckets[i] = LatencyBucket{LeMs: b.LeMs, Count: b.Count}
	}
	return out
}

// WorkerRPCStats is one shard worker's cumulative RPC counters on a
// distributed index: request/retry/hedge/error totals, the permanent
// (409) and unavailable (503) status counts, health flip count, and
// the RPC latency histogram. The serving daemon exposes these under
// /metrics "workers".
type WorkerRPCStats struct {
	Addr              string          `json:"addr"`
	Shard             int             `json:"shard"`
	Healthy           bool            `json:"healthy"`
	LastErr           string          `json:"last_err,omitempty"`
	Requests          int64           `json:"requests"`
	Retries           int64           `json:"retries"`
	Hedges            int64           `json:"hedges"`
	Errors            int64           `json:"errors"`
	Status409         int64           `json:"status_409"`
	Status503         int64           `json:"status_503"`
	HealthTransitions int64           `json:"health_transitions"`
	Latency           LatencySnapshot `json:"latency_ms"`
}

// WorkerRPCStats returns per-worker RPC counters ordered by shard, or
// nil for a non-distributed index. Counters are cumulative since load.
func (ix *Index) WorkerRPCStats() []WorkerRPCStats {
	ss := shard.WorkerStats(ix.eng)
	if ss == nil {
		return nil
	}
	out := make([]WorkerRPCStats, len(ss))
	for i, s := range ss {
		out[i] = WorkerRPCStats{
			Addr: s.Addr, Shard: s.Shard, Healthy: s.Healthy, LastErr: s.LastErr,
			Requests: s.Requests, Retries: s.Retries, Hedges: s.Hedges, Errors: s.Errors,
			Status409: s.Status409, Status503: s.Status503,
			HealthTransitions: s.HealthTransitions,
			Latency:           latencySnapshot(s.Latency),
		}
	}
	return out
}
