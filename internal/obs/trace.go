package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

type ctxKey struct{}

// RequestIDHeader carries a request id: Trace honours it inbound and
// echoes it, and a service that calls another forwards it.
const RequestIDHeader = "X-Request-ID"

// RequestID returns the request id the Trace middleware stored in ctx,
// or "" outside a traced request.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// WithRequestID returns ctx carrying id as its request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// ForwardRequestID sets req's RequestIDHeader to the request id its
// context carries, if any, so one id follows a request across services.
func ForwardRequestID(req *http.Request) {
	if id := RequestID(req.Context()); id != "" {
		req.Header.Set(RequestIDHeader, id)
	}
}

// TraceConfig configures the Trace middleware. Every field may be left
// zero: the defaults are the Default registry, slog.Default(), the raw
// URL path as the endpoint label, and the "http" metric prefix.
type TraceConfig struct {
	// Registry receives the request metrics.
	Registry *Registry
	// Logger receives one structured line per request.
	Logger *slog.Logger
	// Endpoint maps a request to its metric label. Supply one that
	// collapses path parameters ("/v1/datasets/{name}") — labeling by
	// raw path would let clients mint unbounded series.
	Endpoint func(*http.Request) string
	// Prefix is the metric-name prefix, default "http".
	Prefix string
}

// Trace wraps next with per-request observability: a request id
// (honoring an inbound X-Request-ID, echoing it on the response and
// exposing it via RequestID), request/latency/bytes metrics by
// endpoint, an in-flight gauge, and one structured log line per
// request with id, method, path, status, bytes and duration.
func Trace(next http.Handler, cfg TraceConfig) http.Handler {
	reg := cfg.Registry
	if reg == nil {
		reg = Default
	}
	prefix := cfg.Prefix
	if prefix == "" {
		prefix = "http"
	}
	endpoint := cfg.Endpoint
	if endpoint == nil {
		endpoint = func(r *http.Request) string { return r.URL.Path }
	}
	requests := reg.CounterVec(prefix+"_requests_total", "HTTP requests by endpoint and status.", "endpoint", "status")
	latency := reg.HistogramVec(prefix+"_request_seconds", "HTTP request latency in seconds.", nil, "endpoint")
	respBytes := reg.CounterVec(prefix+"_response_bytes_total", "HTTP response body bytes by endpoint.", "endpoint")
	inflight := reg.Gauge(prefix+"_inflight_requests", "HTTP requests currently being served.")

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		logger := cfg.Logger
		if logger == nil {
			logger = slog.Default()
		}
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		ctx := WithRequestID(r.Context(), id)

		rw := &traceWriter{ResponseWriter: w}
		ep := endpoint(r)
		inflight.Inc()
		start := time.Now()
		next.ServeHTTP(rw, r.WithContext(ctx))
		d := time.Since(start)
		inflight.Dec()

		status := rw.status
		if status == 0 {
			status = http.StatusOK
		}
		requests.With(ep, strconv.Itoa(status)).Inc()
		latency.With(ep).Observe(d.Seconds())
		respBytes.With(ep).Add(rw.bytes)

		level := slog.LevelInfo
		if status >= 500 {
			level = slog.LevelError
		}
		logger.LogAttrs(ctx, level, "http_request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", ep),
			slog.Int("status", status),
			slog.Int64("bytes", rw.bytes),
			slog.Duration("duration", d),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// traceWriter records status and body size on the way through.
type traceWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *traceWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *traceWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush passes through so streaming handlers keep working when traced.
func (w *traceWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

var reqSeq atomic.Uint64

// newRequestID returns 16 hex chars of crypto randomness, falling back
// to a process-local sequence if the random source fails.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("seq-%d", reqSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}
