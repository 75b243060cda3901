package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"time"

	flex "flexmeasures"
	"flexmeasures/internal/obs"
	"flexmeasures/internal/persist"
	"flexmeasures/internal/server"
	"flexmeasures/internal/shard"
)

// shards is the engine and store shard count of every workload.
const shards = 2

// bodySeed keys the response-body hashes; one seed per process, so the
// client's hashes and the oracle's are comparable.
var bodySeed = maphash.MakeSeed()

// env is one in-process flexd: a sharded engine with flexd's default
// options, a WAL store with flexd's default fsync policy, the HTTP
// server on a loopback listener, and the client that drives it.
type env struct {
	dir    string
	se     *flex.ShardedEngine
	store  *persist.WALStore
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	ops    *opCounts
	closed bool
}

// engineOptions are flexd's defaults: a worker per CPU per shard, safe
// aggregation, no peak cap, incremental scheduling with the default
// fallback threshold.
func engineOptions() []flex.Option {
	return []flex.Option{
		flex.WithWorkers(0),
		flex.WithSafe(true),
		flex.WithPeakCap(0),
		flex.WithIncremental(true),
		flex.WithIncrementalThreshold(0),
	}
}

// walOptions are flexd's -data-dir defaults (-fsync always, 64 MiB
// segments) with the given snapshot cadence.
func walOptions(dir string, snapshotEvery int, fs persist.FS, ex flex.Executor, m *obs.Metrics) persist.Options {
	return persist.Options{
		Dir:           dir,
		SnapshotEvery: snapshotEvery,
		FS:            fs,
		Router:        shard.Router{Shards: shards},
		Fsync:         persist.FsyncAlways,
		Executor:      ex,
		Metrics:       m,
	}
}

// startEnv boots a flexd over a fresh WAL in dir. tracer may be nil
// (tracing off, as in the end-to-end runs); fs may be nil (the real
// filesystem).
func startEnv(dir string, snapshotEvery int, tracer *obs.Tracer, fs persist.FS, ops *opCounts) (*env, error) {
	se := flex.NewSharded(shards, engineOptions()...)
	store, err := persist.OpenWAL(walOptions(dir, snapshotEvery, fs, se.Executor(), tracer.Metrics()))
	if err != nil {
		se.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		se.Close()
		return nil, err
	}
	e := &env{
		dir:    dir,
		se:     se,
		store:  store,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		ops: ops,
	}
	e.hs = &http.Server{
		Handler: server.NewSharded(se, server.Options{
			Store:              store,
			StreamWriteTimeout: time.Minute,
			Tracer:             tracer,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		WriteTimeout:      time.Minute,
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// stopServing shuts the HTTP server down and waits for it to exit; the
// engine and store stay open.
func (e *env) stopServing() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.client.CloseIdleConnections()
	e.hs = nil
	return err
}

// close stops the server, then closes the store and the engine, in
// flexd's shutdown order. Closing twice is a no-op.
func (e *env) close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	err := e.stopServing()
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	e.se.Close()
	return err
}

// opCounts tallies the requests a run attempted and how they ended.
type opCounts struct {
	attempted, refused, failed int
}

// reply is one response as the client saw it: status, size and the
// hash of the whole body.
type reply struct {
	status int
	bytes  int64
	hash   uint64
}

// do sends one request and reads the response to its last byte into a
// hash; it never decodes the body. Refused (429/503) and failed
// requests are counted; a refused or failed request returns an error.
func (e *env) do(method, path string, body []byte) (reply, error) {
	e.ops.attempted++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.base+path, rd)
	if err != nil {
		e.ops.failed++
		return reply{}, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.ops.failed++
		return reply{}, err
	}
	defer resp.Body.Close()
	var h maphash.Hash
	h.SetSeed(bodySeed)
	n, err := io.Copy(&h, resp.Body)
	r := reply{status: resp.StatusCode, bytes: n, hash: h.Sum64()}
	switch {
	case err != nil:
		e.ops.failed++
		return r, err
	case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
		e.ops.refused++
		return r, fmt.Errorf("%s %s refused: %d", method, path, r.status)
	case r.status != http.StatusOK:
		e.ops.failed++
		return r, fmt.Errorf("%s %s failed: %d", method, path, r.status)
	}
	return r, nil
}

// hashWriter hashes bytes written by a renderer — the oracle side of
// the client's body hash.
type hashWriter struct {
	h maphash.Hash
	n int64
}

func newHashWriter() *hashWriter {
	w := &hashWriter{}
	w.h.SetSeed(bodySeed)
	return w
}

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}
