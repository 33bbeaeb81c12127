package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"dmc/internal/cache"
	"dmc/internal/obs"
	"dmc/internal/server"
	"dmc/internal/store"
)

// env is one workload's running server. Everything is in-process and
// listens on loopback; the load reaches it only over HTTP.
type env struct {
	base    string // URL of the server the client talks to
	closers []func() error
}

// quiet swallows the servers' per-request log lines: the records are
// still formatted, as dmcserve formats them, but nothing is printed.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// serverConfig is dmcserve's default configuration.
func serverConfig() server.Config {
	return server.Config{
		Logger:             quiet,
		MaxConcurrentMines: runtime.GOMAXPROCS(0),
		RequestTimeout:     2 * time.Minute,
	}
}

// serve starts a server with cfg on a fresh loopback port.
func (e *env) serve(cfg server.Config) (*server.Server, string, error) {
	s := server.NewWith(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, ln) }()
	e.closers = append(e.closers, func() error { cancel(); return <-done })
	return s, "http://" + ln.Addr().String(), nil
}

// close stops the servers and then closes what they used, in reverse
// order of creation, waiting for each.
func (e *env) close() error {
	var err error
	for i := len(e.closers) - 1; i >= 0; i-- {
		err = errors.Join(err, e.closers[i]())
	}
	e.closers = nil
	return err
}

// startEnv builds w's server under dir and registers the dataset: PUT
// over HTTP, or AddFile for the streamed workload.
func startEnv(w *workload, in *inputs, dir string) (*env, error) {
	e := &env{}
	fail := func(err error) (*env, error) { return nil, errors.Join(err, e.close()) }
	cfg := serverConfig()
	if w.cache {
		c, err := cache.Open(filepath.Join(dir, "cache"), cache.Options{})
		if err != nil {
			return fail(err)
		}
		e.closers = append(e.closers, c.Close)
		cfg.Cache = c
	}
	if w.appends {
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			return fail(err)
		}
		e.closers = append(e.closers, st.Close)
		cfg.Store = st
	}
	s, url, err := e.serve(cfg)
	if err != nil {
		return fail(err)
	}
	e.base = url
	if w.streamed {
		if err := s.AddFile(datasetName, in.file); err != nil {
			return fail(err)
		}
		return e, nil
	}
	c := newClient(url)
	defer c.close()
	status, _, err := c.do(http.MethodPut, "/v1/datasets/"+datasetName, in.body)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("PUT dataset: status %d: %s", status, c.body.Bytes())
	}
	if err != nil {
		return fail(err)
	}
	return e, nil
}

// client is one closed-loop HTTP client holding at most one connection.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer // the last reply's body
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the reply to its last byte into
// c.body. lat runs from sending the request to reading that byte; a
// reply cut short by the connection is an error.
func (c *client) do(method, path string, body []byte) (status int, lat time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	c.body.Reset()
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, time.Since(start), err
}

// counters reads the server's /v1/metrics as JSON.
func (c *client) counters() (counters, error) {
	status, _, err := c.do(http.MethodGet, "/v1/metrics?format=json", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	var fams []obs.JSONFamily
	if err := json.Unmarshal(c.body.Bytes(), &fams); err != nil {
		return nil, err
	}
	return counters(fams), nil
}

// counters is one /v1/metrics reading.
type counters []obs.JSONFamily

// sum adds up the counter or gauge name over the series keep admits
// (nil keeps all).
func (cs counters) sum(name string, keep func(labels map[string]string) bool) float64 {
	var v float64
	for _, f := range cs {
		if f.Name != name {
			continue
		}
		for _, s := range f.Series {
			if s.Value != nil && (keep == nil || keep(s.Labels)) {
				v += float64(*s.Value)
			}
		}
	}
	return v
}
