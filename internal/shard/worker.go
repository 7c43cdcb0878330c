package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/indexio"
	"skinnymine/internal/obs"
)

// Worker HTTP protocol, served by one process per shard file:
//
//	GET  /skinnymine/v1/info        identity probe: graph count, σ, shard
//	                                CRC, shard index, uptime, build info
//	POST /skinnymine/v1/candidates  one Stage I op; query selects it:
//	      op=edges                      level-1 candidates (no body)
//	      op=concat                     double the posted level (body)
//	      op=merge&l=L&m=M              overlap the posted level (body)
//	      workers=N                     join fan-out inside the shard
//
// Candidate sets travel both ways as indexio level-set streams
// (LevelMagic) with SHARD-LOCAL graph IDs — the coordinator's split and
// recount translate them, which preserves embedding order because each
// shard's global IDs ascend. Every candidate request must carry the
// coordinator's idea of this worker's shard file CRC in the
// ShardCRCHeader; a mismatch is answered 409 so a miswired fleet fails
// loudly and permanently instead of mining garbage.
const (
	WorkerInfoPath       = "/skinnymine/v1/info"
	WorkerCandidatesPath = "/skinnymine/v1/candidates"

	// ShardCRCHeader carries the CRC-32C (Castagnoli, 8 lowercase hex
	// digits) of the shard snapshot file the coordinator believes this
	// worker serves — the same checksum the manifest records.
	ShardCRCHeader = "X-Skinnymine-Shard-Crc"

	// TraceHeader opts a candidate request into span recording: when it
	// is "1", the worker times its decode / Stage I op / encode phases
	// under a recording trace and returns the completed spans as compact
	// JSON in SpansHeader, offsets relative to the worker's own request
	// start. Tracing is visibility only — the response body is
	// byte-identical either way (refguard-pinned).
	TraceHeader = "X-Skinnymine-Trace"

	// SpansHeader carries the worker's []obs.SpanData as one line of
	// JSON on a traced candidate response, for the coordinator to graft
	// under its worker.rpc span.
	SpansHeader = "X-Skinnymine-Spans"
)

// Worker serves Stage I candidate generation for one shard's graphs
// over HTTP, through the in-process core.Runner over the whole shard.
// It is stateless across requests: every join call owns its buckets and
// scratch, so concurrent requests, including a coordinator's hedged
// duplicates, share nothing mutable.
type Worker struct {
	graphs    []*graph.Graph
	joins     core.Runner
	numLabels int
	sigma     int
	crc       uint32
	shard     int // manifest shard index, -1 when unknown
	start     time.Time
	mux       *http.ServeMux
	log       *slog.Logger
}

// WorkerInfo is the /skinnymine/v1/info (and /healthz) response body:
// enough identity for an operator — or skinnytop — to spot a miswired
// or stale worker before a 409 does.
type WorkerInfo struct {
	Status        string  `json:"status"`
	Graphs        int     `json:"graphs"`
	Sigma         int     `json:"sigma"`
	CRC           string  `json:"crc"`   // 8 lowercase hex digits, CRC-32C
	Shard         int     `json:"shard"` // manifest shard index, -1 when unknown
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"` // VCS revision baked into the binary
}

// NewWorker returns a worker serving the given shard content. graphs
// are the shard's graphs in shard-local order, numLabels the size of
// the snapshot's label vocabulary, sigma the index threshold (reported
// by the info probe; candidate generation itself runs at threshold 1,
// like every shard), and crc the CRC-32C of the shard snapshot file.
func NewWorker(graphs []*graph.Graph, numLabels, sigma int, crc uint32) (*Worker, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("shard: refusing to serve a worker with no graphs")
	}
	w := &Worker{
		graphs:    graphs,
		joins:     core.NewJoinRunner(graphs),
		numLabels: numLabels,
		sigma:     sigma,
		crc:       crc,
		shard:     -1,
		start:     time.Now(),
		mux:       http.NewServeMux(),
		log:       slog.Default(),
	}
	w.mux.HandleFunc(WorkerInfoPath, w.handleInfo)
	w.mux.HandleFunc(WorkerCandidatesPath, w.handleCandidates)
	w.mux.HandleFunc("/healthz", w.handleInfo)
	return w, nil
}

// SetShard records the manifest shard index this worker serves, for the
// info probe (default -1, unknown). Call before serving, like
// SetLogger.
func (w *Worker) SetShard(s int) { w.shard = s }

// SetLogger replaces the worker's structured logger (default:
// slog.Default()). Call it before serving, not concurrently with
// requests. Every candidate RPC is logged with its op, level
// parameters, result size, duration and the coordinator's request ID
// (echoed from the X-Request-Id header), so one query is greppable
// across the whole fleet.
func (w *Worker) SetLogger(l *slog.Logger) {
	if l != nil {
		w.log = l
	}
}

// CRC returns the shard file checksum the worker pins requests to.
func (w *Worker) CRC() uint32 { return w.crc }

// NumGraphs returns the shard's graph count.
func (w *Worker) NumGraphs() int { return len(w.graphs) }

// Sigma returns the threshold the shard snapshot was built with.
func (w *Worker) Sigma() int { return w.sigma }

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mux.ServeHTTP(rw, r)
}

// buildRevision is the VCS revision stamped into the binary, resolved
// once — ReadBuildInfo walks the whole dependency table.
var buildRevision = func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
}()

func (w *Worker) handleInfo(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(WorkerInfo{
		Status:        "ok",
		Graphs:        len(w.graphs),
		Sigma:         w.sigma,
		CRC:           fmt.Sprintf("%08x", w.crc),
		Shard:         w.shard,
		UptimeSeconds: time.Since(w.start).Seconds(),
		GoVersion:     runtime.Version(),
		Revision:      buildRevision,
	})
}

func (w *Worker) handleCandidates(rw http.ResponseWriter, r *http.Request) {
	// Echo the coordinator's request ID so one mining query is greppable
	// coordinator-log → every worker log; every outcome below is logged
	// with it.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID != "" {
		rw.Header().Set(obs.RequestIDHeader, reqID)
	}
	// Opt-in span recording: offsets are relative to THIS trace's start
	// (the request's arrival), so the coordinator can rebase them against
	// its own clock without ever seeing ours — clock skew cannot reach
	// the stitched tree. Tracing must not change the response bytes
	// (refguard-pinned), only add the SpansHeader.
	var wtr *obs.Trace
	tracer := obs.Nop
	if r.Header.Get(TraceHeader) == "1" {
		wtr = obs.NewTrace()
		tracer = wtr
	}
	t0 := time.Now()
	op := r.URL.Query().Get("op")
	fail := func(status int, msg string) {
		w.log.Warn("candidates rejected", "op", op, "status", status, "err", msg, "request_id", reqID)
		http.Error(rw, msg, status)
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "candidates requests are POST")
		return
	}
	if got := r.Header.Get(ShardCRCHeader); got != fmt.Sprintf("%08x", w.crc) {
		// Permanent: the coordinator is talking to the wrong shard (or a
		// stale generation). Retrying cannot help; say so with a 409.
		fail(http.StatusConflict, fmt.Sprintf("shard CRC mismatch: this worker serves %08x, request pins %q", w.crc, got))
		return
	}
	q := r.URL.Query()
	workers, err := queryInt(q.Get("workers"), 1)
	if err != nil {
		fail(http.StatusBadRequest, "bad workers parameter: "+err.Error())
		return
	}
	// readLevel under a decode span tagged with what came off the wire.
	decode := func(l int) ([]*core.PathPattern, error) {
		sp := tracer.Start("worker.decode")
		ps, err := w.readLevel(r, l)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.TagInt("patterns", int64(len(ps))).TagInt("embeddings", countEmbeddings(ps)).End()
		return ps, nil
	}
	// Validation and decode settle the op's inputs first; the stage1
	// span then times exactly the candidate generation, with decode and
	// encode as siblings, not children.
	ctx := r.Context()
	var runOp func() ([]*core.PathPattern, error)
	switch op {
	case "edges":
		runOp = func() ([]*core.PathPattern, error) { return w.joins.Edges(ctx, workers) }
	case "concat":
		prev, err := decode(0)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		runOp = func() ([]*core.PathPattern, error) { return w.joins.Concat(ctx, prev, workers) }
	case "merge":
		l, err := queryInt(q.Get("l"), 0)
		if err != nil {
			fail(http.StatusBadRequest, "bad l parameter: "+err.Error())
			return
		}
		m, err := queryInt(q.Get("m"), 0)
		if err != nil {
			fail(http.StatusBadRequest, "bad m parameter: "+err.Error())
			return
		}
		if m < 1 || l <= m || l >= 2*m {
			fail(http.StatusBadRequest, fmt.Sprintf("merge requires m < l < 2m, got l=%d m=%d", l, m))
			return
		}
		pool, err := decode(m)
		if err != nil {
			fail(http.StatusBadRequest, err.Error())
			return
		}
		runOp = func() ([]*core.PathPattern, error) { return w.joins.Merge(ctx, pool, l, m, workers) }
	default:
		fail(http.StatusBadRequest, fmt.Sprintf("unknown op %q", op))
		return
	}
	sp1 := tracer.Start("worker.stage1").Tag("op", op)
	out, err := runOp()
	if err != nil {
		sp1.Tag("outcome", "error").End()
		fail(http.StatusInternalServerError, err.Error())
		return
	}
	sp1.TagInt("candidates", int64(len(out))).TagInt("embeddings", countEmbeddings(out)).End()
	var buf bytes.Buffer
	spEnc := tracer.Start("worker.encode")
	if err := indexio.SaveLevel(&buf, out); err != nil {
		fail(http.StatusInternalServerError, err.Error())
		return
	}
	spEnc.TagInt("bytes", int64(buf.Len())).End()
	if wtr != nil {
		// Compact single-line JSON; SpanData attrs are string/int64 only,
		// so the encoding is header-safe. Must go out before the body.
		if js, err := json.Marshal(wtr.Snapshot()); err == nil {
			rw.Header().Set(SpansHeader, string(js))
		}
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	rw.Write(buf.Bytes())
	w.log.Info("candidates served", "op", op, "workers", workers,
		"patterns", len(out), "bytes", buf.Len(),
		"dur_ms", float64(time.Since(t0).Microseconds())/1000, "request_id", reqID)
}

// readLevel decodes the posted level and validates it against the
// shard's graphs as level l, or, when l is 0, as the level its patterns
// declare. Decoded patterns feed straight into join scratch arrays, so
// a bad level must be a 400, never a panic (the check core.RestoreEngine
// and the coordinator apply to the levels they take in). An empty level
// has nothing to check.
func (w *Worker) readLevel(r *http.Request, l int) ([]*core.PathPattern, error) {
	ps, err := indexio.LoadLevel(r.Body, w.numLabels, len(w.graphs))
	if err != nil || len(ps) == 0 {
		return ps, err
	}
	if l == 0 {
		l = ps[0].Length()
	}
	if err := core.ValidateLevel(w.graphs, l, ps); err != nil {
		return nil, err
	}
	return ps, nil
}

// countEmbeddings totals the embedding lists of a level, for span tags.
func countEmbeddings(ps []*core.PathPattern) int64 {
	var n int64
	for _, p := range ps {
		n += int64(len(p.GIDs))
	}
	return n
}

// queryInt parses a positive-int query parameter, defaulting when
// absent.
func queryInt(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("negative value %d", n)
	}
	return n, nil
}
