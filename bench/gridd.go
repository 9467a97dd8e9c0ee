package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"gridrealloc/internal/service"
)

// gridd is an in-process daemon: service.New(...).Handler() served on a
// 127.0.0.1 listener the way cmd/gridd serves it, plus a service.Client
// whose transport keeps at most env.procs connections.
type gridd struct {
	svc    *service.Service
	hs     *http.Server
	served chan error
	tp     *http.Transport
	client *service.Client
	// trace, when set, receives a service.handler span per request. It is
	// consulted only in traced runs: untraced runs serve the handler bare.
	trace atomic.Pointer[tracer]
}

// reqHeader carries the benchmark's request ID from client to handler so
// both sides' spans of one request share it.
const reqHeader = "X-Bench-Req"

type reqKey struct{}

// withReq tags ctx with a request ID for the traced transport.
func withReq(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

// tagTransport copies the context's request ID into a header.
type tagTransport struct{ next http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, ok := r.Context().Value(reqKey{}).(int64)
	if !ok {
		return t.next.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	return t.next.RoundTrip(r)
}

func bootGridd(e *env, cfg service.Config) (*gridd, error) {
	cfg.Now = e.clock
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Drain(context.Background())
		return nil, err
	}
	g := &gridd{svc: svc, served: make(chan error, 1)}
	h := svc.Handler()
	if e.traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr := g.trace.Load()
			if tr == nil {
				inner.ServeHTTP(w, r)
				return
			}
			id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
			t0 := e.clock()
			inner.ServeHTTP(w, r)
			tr.record(0, 0, "service.handler", id, t0, e.clock())
		})
	}
	g.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { g.served <- g.hs.Serve(ln) }()
	g.tp = &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs}
	var rt http.RoundTripper = g.tp
	if e.traced {
		rt = tagTransport{next: g.tp}
	}
	g.client = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: rt}}
	// Open the keep-alive connections now, so the timed phase does not pay
	// for dialing.
	errs := make(chan error, e.procs)
	for i := 0; i < e.procs; i++ {
		go func() {
			_, err := g.client.Healthz(context.Background())
			errs <- err
		}()
	}
	for i := 0; i < e.procs; i++ {
		if herr := <-errs; herr != nil && err == nil {
			err = herr
		}
	}
	if err != nil {
		g.close()
		return nil, fmt.Errorf("gridd warm-up: %w", err)
	}
	return g, nil
}

// close drains the service, shuts the server down and waits for it; an
// error means the drain was degraded.
func (g *gridd) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drainErr := g.svc.Drain(ctx)
	shutErr := g.hs.Shutdown(ctx)
	if err := <-g.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	g.tp.CloseIdleConnections()
	return errors.Join(drainErr, shutErr)
}
