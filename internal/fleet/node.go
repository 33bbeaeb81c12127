package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dmc/internal/obs"
)

// ErrStaleReplica is returned by a shard attempt when the worker does
// not hold the task's dataset bytes — either no dataset under the name
// (404) or different content (409). The coordinator answers it by
// pushing the replica and retrying the same node.
var ErrStaleReplica = errors.New("fleet: worker replica missing or stale")

// errRetryable marks shard failures worth requeueing to another node:
// transport errors (the node died mid-pass) and overload sheds.
var errRetryable = errors.New("fleet: retryable shard failure")

// ShardError is a worker's non-retryable rejection of a shard task —
// a bad request or an internal failure that another node would repeat.
type ShardError struct {
	Node   string
	Status int
	Msg    string
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("fleet: node %s rejected shard: %d %s", e.Node, e.Status, e.Msg)
}

// shedError is a worker's 429/503 overload shed: the node is alive but
// unwilling, and RetryAfter carries its own advice on when to come
// back (zero when it sent none). It unwraps to errRetryable — a shed
// shard moves on to a sibling — while the advice embargoes the
// shedding node so a wraparound does not re-hit it instantly.
type shedError struct {
	node       string
	status     int
	retryAfter time.Duration
}

func (e *shedError) Error() string {
	return fmt.Sprintf("fleet: node %s shed the shard (status %d, retry after %s)",
		e.node, e.status, e.retryAfter)
}

func (e *shedError) Unwrap() error { return errRetryable }

// retryAfterCap bounds how long worker Retry-After advice may embargo a
// node — a buggy or hostile header must not stall a mine for minutes.
const retryAfterCap = 5 * time.Second

// parseRetryAfter reads a Retry-After header: delta-seconds or an
// HTTP-date; empty or unparseable reads as no advice.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		return time.Until(t)
	}
	return 0
}

// Node is one worker endpoint. Health flips down on failed probes or
// failed shard attempts and back up on the next successful probe; the
// circuit breaker opens on consecutive transport failures and gates
// shard dispatch until its half-open probe succeeds. The HTTP client
// is shared across the registry so connections pool.
type Node struct {
	name   string
	base   string
	client *http.Client
	br     *breaker

	healthy atomic.Bool
	cpus    atomic.Int64
	// shedUntil is the Retry-After embargo (UnixNano): no shard is
	// dispatched to the node before it, as long as a sibling can serve.
	shedUntil atomic.Int64
}

func newNode(raw string, client *http.Client) (*Node, error) {
	u, err := url.Parse(raw)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("fleet: bad node URL %q (want http://host:port)", raw)
	}
	return &Node{
		name:   u.Host,
		base:   strings.TrimRight(u.String(), "/"),
		client: client,
	}, nil
}

// Name identifies the node in metrics and errors (its host:port).
func (n *Node) Name() string { return n.name }

// Healthy reports the node's last known probe/attempt outcome.
func (n *Node) Healthy() bool { return n.healthy.Load() }

// CPUs is the capacity the node reported on its last good probe.
func (n *Node) CPUs() int { return int(n.cpus.Load()) }

// Breaker returns the node's circuit breaker position.
func (n *Node) Breaker() BreakerState { return n.br.State() }

// shedEmbargo returns when the node's Retry-After embargo lifts (zero
// time when there is none).
func (n *Node) shedEmbargo() time.Time {
	v := n.shedUntil.Load()
	if v == 0 {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// dispatchable reports whether a shard may go to the node now: breaker
// closed and no live shed embargo.
func (n *Node) dispatchable(now time.Time) bool {
	return n.br.Allow() && !n.shedEmbargo().After(now)
}

// transportFailed records one transport-level failure against health
// and breaker — unless ctx was canceled, in which case the failure is
// the caller's (a hedge loser, a mine cut short), not the node's.
func (n *Node) transportFailed(ctx context.Context) bool {
	if ctx.Err() != nil {
		return false
	}
	n.healthy.Store(false)
	n.br.onFailure()
	return true
}

// Probe failure reasons, the label values of
// dmc_fleet_probe_failures_total. "connect" is a transport-level
// failure (refused, reset, timed out), "status" a non-200 answer,
// "decode" an unparseable Info body, "not_ready" a worker that answered
// but reported itself loading or draining.
const (
	probeConnect  = "connect"
	probeStatus   = "status"
	probeDecode   = "decode"
	probeNotReady = "not_ready"
)

// probeFailure classifies why a probe failed, so operators can tell a
// dead worker (connect) from a draining one (not_ready) on the metric
// alone.
type probeFailure struct {
	reason string
	err    error
}

func (e *probeFailure) Error() string { return e.err.Error() }
func (e *probeFailure) Unwrap() error { return e.err }

// probeReason extracts the failure classification; errors from outside
// the probe path read as "unknown".
func probeReason(err error) string {
	var pf *probeFailure
	if errors.As(err, &pf) {
		return pf.reason
	}
	return "unknown"
}

// probe refreshes the node's health from its Info endpoint. A ready
// answer is the breaker's half-open trial success; transport-level
// failures count against the breaker; a reachable-but-not-ready worker
// touches neither direction (draining is not dead, but it is not a
// recovery either).
func (n *Node) probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+InfoPath, nil)
	if err != nil {
		return &probeFailure{reason: probeConnect, err: err}
	}
	resp, err := n.client.Do(req)
	if err != nil {
		n.transportFailed(ctx)
		return &probeFailure{reason: probeConnect, err: err}
	}
	defer drain(resp.Body)
	var info Info
	if resp.StatusCode != http.StatusOK {
		n.transportFailed(ctx)
		return &probeFailure{reason: probeStatus,
			err: fmt.Errorf("fleet: probe %s: status %d", n.name, resp.StatusCode)}
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&info); err != nil {
		n.transportFailed(ctx)
		return &probeFailure{reason: probeDecode,
			err: fmt.Errorf("fleet: probe %s: %w", n.name, err)}
	}
	n.cpus.Store(int64(info.CPUs))
	up := info.Status == "ready"
	n.healthy.Store(up)
	if !up {
		return &probeFailure{reason: probeNotReady,
			err: fmt.Errorf("fleet: probe %s: worker %s", n.name, info.Status)}
	}
	n.br.onSuccess()
	return nil
}

// runShard executes one shard task on the node and returns the raw
// dmcrules payload, verified against the response's Content-Length and
// CRC-32C trailer header so a truncated or corrupted payload is
// retried, never merged. Failures are classified: ErrStaleReplica
// wants a dataset push, errRetryable (incl. *shedError) a requeue,
// *ShardError is final.
func (n *Node) runShard(ctx context.Context, t Task) ([]byte, error) {
	body, err := json.Marshal(t)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.base+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.ForwardRequestID(req)
	resp, err := n.client.Do(req)
	if err != nil {
		if !n.transportFailed(ctx) {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: node %s: %v", errRetryable, n.name, err)
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		payload, err := io.ReadAll(resp.Body)
		if err != nil {
			// The node died mid-response; the partial payload is useless.
			if !n.transportFailed(ctx) {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%w: node %s: reading shard payload: %v", errRetryable, n.name, err)
		}
		if resp.ContentLength >= 0 && int64(len(payload)) != resp.ContentLength {
			n.transportFailed(ctx)
			return nil, fmt.Errorf("%w: node %s: shard payload truncated (%d of %d bytes)",
				errRetryable, n.name, len(payload), resp.ContentLength)
		}
		if want := resp.Header.Get(PayloadCRCHeader); want != "" && want != PayloadCRC(payload) {
			n.transportFailed(ctx)
			return nil, fmt.Errorf("%w: node %s: shard payload CRC mismatch (want %s, got %s)",
				errRetryable, n.name, want, PayloadCRC(payload))
		}
		n.br.onSuccess()
		return payload, nil
	case http.StatusNotFound, http.StatusConflict:
		n.br.onSuccess() // the transport is fine; the replica is stale
		return nil, fmt.Errorf("%w (node %s, dataset %s)", ErrStaleReplica, n.name, t.Dataset)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Overload shed or drain: the node is alive but unwilling; try a
		// sibling, honor its Retry-After, and let the probe loop decide
		// when it is healthy again. Backpressure is not a transport
		// failure, so the breaker stays untouched.
		n.healthy.Store(false)
		ra := parseRetryAfter(resp.Header.Get("Retry-After"))
		if ra > retryAfterCap {
			ra = retryAfterCap
		}
		if ra > 0 {
			n.shedUntil.Store(time.Now().Add(ra).UnixNano())
		}
		return nil, &shedError{node: n.name, status: resp.StatusCode, retryAfter: ra}
	default:
		return nil, &ShardError{Node: n.name, Status: resp.StatusCode, Msg: readErrBody(resp.Body)}
	}
}

// pushDataset ships a replica of the dataset to the node.
func (n *Node) pushDataset(ctx context.Context, name string, frame []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, n.base+DatasetsPath+url.PathEscape(name), bytes.NewReader(frame))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	obs.ForwardRequestID(req)
	resp, err := n.client.Do(req)
	if err != nil {
		if !n.transportFailed(ctx) {
			return ctx.Err()
		}
		return fmt.Errorf("%w: node %s: push: %v", errRetryable, n.name, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("fleet: node %s refused dataset push: %d %s", n.name, resp.StatusCode, readErrBody(resp.Body))
	}
	n.br.onSuccess()
	return nil
}

// drain discards the rest of a response body and closes it, so the
// pooled connection is reusable.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

func readErrBody(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, 4<<10))
	return strings.TrimSpace(string(b))
}
