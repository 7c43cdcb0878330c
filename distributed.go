package skinnymine

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"skinnymine/internal/indexio"
	"skinnymine/internal/shard"
)

// ErrUnavailable reports that a distributed index could not reach a
// shard worker within its full retry budget. Mining either answers
// completely or fails with this error — never a partial result — so
// callers (the serving daemon maps it to HTTP 503) can retry safely.
var ErrUnavailable = shard.ErrUnavailable

// DistributedConfig configures a distributed index: one worker address
// per shard of the snapshot manifest, positional — Workers[i] must be
// a skinnymined -worker process serving shard i's snapshot file. Every
// RPC is pinned to the manifest's shard checksum, so a miswired fleet
// fails permanently and loudly instead of mining garbage.
type DistributedConfig struct {
	// Workers holds one "host:port" (or "http://host:port") per shard.
	Workers []string
	// WorkerTimeout bounds each RPC attempt; the mining request's own
	// context deadline additionally applies. <= 0 means 30s.
	WorkerTimeout time.Duration
	// WorkerRetries is the number of re-attempts after a retryable
	// failure (connection refused, timeout, 5xx). < 0 means 2.
	WorkerRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// retry. <= 0 means 100ms.
	RetryBackoff time.Duration
	// HedgeAfter duplicates an RPC that has not answered within this
	// long, racing the straggler against a fresh attempt. <= 0 disables
	// hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the period of the per-worker background health
	// probe. <= 0 disables probing.
	ProbeInterval time.Duration
}

// WorkerStatus is one shard worker's last observed health.
type WorkerStatus struct {
	Addr    string `json:"addr"`
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// LoadDistributedIndexFile restores a sharded snapshot as a
// DISTRIBUTED index: cached levels serve locally exactly as with
// LoadIndexFile, but any new Stage I level materializes by
// scatter/gathering candidate generation across the configured HTTP
// workers, with the exact cross-shard support merge running on the
// coordinator. Output stays byte-identical to the in-process engines.
//
// Workers are not contacted at load time; a coordinator starts — and
// serves everything already cached — with the whole fleet down. A
// materialization that needs an unreachable shard fails with
// ErrUnavailable after the retry budget, leaving every cache as it was.
// Close the index to stop the health probes.
func LoadDistributedIndexFile(path string, cfg DistributedConfig) (*Index, error) {
	f, sharded, err := openSnapshot(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !sharded {
		return nil, fmt.Errorf("skinnymine: %s is not a sharded snapshot manifest; a distributed index loads the manifest WriteSnapshotFile writes for a sharded index", path)
	}
	parts, err := loadShardParts(f, path)
	if err != nil {
		return nil, err
	}
	crcs := make([]uint32, len(parts.m.Shards))
	for s, ref := range parts.m.Shards {
		crcs[s] = ref.CRC
	}
	eng, err := shard.RestoreRemote(parts.st, parts.assign, crcs, len(parts.lt.Names()), shard.RemoteConfig{
		Workers:       cfg.Workers,
		Timeout:       cfg.WorkerTimeout,
		Retries:       cfg.WorkerRetries,
		RetryBackoff:  cfg.RetryBackoff,
		HedgeAfter:    cfg.HedgeAfter,
		ProbeInterval: cfg.ProbeInterval,
	})
	if err != nil {
		return nil, err
	}
	return &Index{eng: eng, lt: parts.lt, parts: parts.assign}, nil
}

// MineContext is Mine with a caller-supplied context. A distributed
// index propagates the context's deadline and cancellation into every
// worker RPC; the in-process joins consult it between level steps (an
// in-flight join is not interruptible). Mine is
// MineContext(context.Background(), opt).
func (ix *Index) MineContext(ctx context.Context, opt Options) (*Result, error) {
	if err := opt.stashWhere(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	copt, tk, err := opt.lower(ix.lt)
	if err != nil {
		return nil, err
	}
	// A trace installed on the context (the daemon's ?trace=1 path)
	// applies when the request carries none of its own; Options.Trace
	// wins when both are present.
	res, err := ix.eng.Mine(ctx, copt)
	if err != nil {
		return nil, err
	}
	return finishResult(res, ix.lt, tk, opt), nil
}

// Close releases index resources: a distributed index stops its health
// probes and closes idle worker connections; every other kind is a
// no-op. Cached levels stay servable after Close, but a distributed
// index must not materialize new ones.
func (ix *Index) Close() error { return ix.eng.Close() }

// WorkerHealth returns each shard worker's last observed health,
// ordered by shard, or nil for a non-distributed index. With
// ProbeInterval set the view self-refreshes in the background;
// otherwise it reflects the outcomes of real RPCs.
func (ix *Index) WorkerHealth() []WorkerStatus {
	hs := shard.WorkerHealth(ix.eng)
	if hs == nil {
		return nil
	}
	out := make([]WorkerStatus, len(hs))
	for i, h := range hs {
		out[i] = WorkerStatus{Addr: h.Addr, Shard: h.Shard, Healthy: h.Healthy, Err: h.Err}
	}
	return out
}

// ShardWorker serves Stage I candidate generation for ONE shard
// snapshot file over HTTP — the worker half of a distributed index.
// It answers GET /skinnymine/v1/info (identity and health — CRC, shard
// index, uptime, build info; also aliased at /healthz) and POST
// /skinnymine/v1/candidates (the binary level-set protocol of
// internal/shard). Workers are stateless across
// requests and safe for concurrent use, including a coordinator's
// hedged duplicate requests.
type ShardWorker struct {
	w *shard.Worker
}

// LoadShardWorkerFile loads one per-shard snapshot file — a
// "<base>.shard<i>-<crc>" file written by WriteSnapshotFile — and
// returns a worker serving it. The file's CRC-32C becomes the worker's
// identity: candidate requests pinned to a different checksum are
// answered 409.
func LoadShardWorkerFile(path string) (*ShardWorker, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st, lt, err := indexio.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("skinnymine: shard file %s: %w", path, err)
	}
	w, err := shard.NewWorker(st.Graphs, len(lt.Names()), st.Sigma, crc32.Checksum(data, castagnoli))
	if err != nil {
		return nil, err
	}
	w.SetShard(shardIndexFromPath(path))
	return &ShardWorker{w: w}, nil
}

// shardIndexFromPath recovers the manifest shard index from the
// generated file name shape "<base>.shard<i>-<crc>", or -1 when the
// file was renamed out of it — the index is advisory identity for the
// info probe, never correctness (that is the CRC pin's job).
func shardIndexFromPath(path string) int {
	name := filepath.Base(path)
	i := strings.LastIndex(name, ".shard")
	if i < 0 {
		return -1
	}
	rest := name[i+len(".shard"):]
	j := strings.IndexByte(rest, '-')
	if j <= 0 {
		return -1
	}
	n, err := strconv.Atoi(rest[:j])
	if err != nil || n < 0 {
		return -1
	}
	return n
}

func (w *ShardWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.w.ServeHTTP(rw, r)
}

// SetLogger replaces the worker's structured logger (default:
// slog.Default()). Call it before serving. Every candidate RPC is
// logged with its op, result size, duration and the coordinator's
// request ID (echoed from the X-Request-Id header), so one mining
// query is greppable across the whole fleet.
func (w *ShardWorker) SetLogger(l *slog.Logger) { w.w.SetLogger(l) }

// NumGraphs returns the shard's graph count.
func (w *ShardWorker) NumGraphs() int { return w.w.NumGraphs() }

// Sigma returns the threshold the shard snapshot was built with.
func (w *ShardWorker) Sigma() int { return w.w.Sigma() }

// CRC returns the shard file's CRC-32C, the identity every candidate
// request must be pinned to.
func (w *ShardWorker) CRC() uint32 { return w.w.CRC() }
