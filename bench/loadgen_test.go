package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall replays 1,000 requests at 2,000 req/s against a
// stub handler that stalls the whole server once for 50 ms. About 100
// requests fall due during the stall; an open-loop generator must charge
// the stall to all of them (timing each from its due time), not only to
// the one request that met it, and must itself stay on schedule.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate    = 2000
		n       = 1000
		stallAt = 400 // due at 200 ms
		stall   = 50 * time.Millisecond
	)
	var mu sync.Mutex
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	tp := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	get := func(int) (func() error, error) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		return nil, resp.Body.Close()
	}
	res := openLoop(time.Now, n, rate, 2, get)
	if res.failed != 0 || res.attempted != n {
		t.Fatalf("attempted %d failed %d", res.attempted, res.failed)
	}
	// The stall starts when request stallAt-1 (due at 199.5 ms) arrives and
	// lasts 50 ms, so each of the 80 requests due after it waits at least
	// 10 ms. A closed-loop or send-time measurement would charge only the
	// request that met the stall.
	for i := stallAt; i < stallAt+80; i++ {
		if res.lat[i] < 10*time.Millisecond {
			t.Errorf("request %d due during the stall took %v", i, res.lat[i])
		}
	}
	if p := percentile(millis(res.lat), 0.99); p < 20 {
		t.Errorf("p99 %.2fms does not show the 50ms stall", p)
	}
	if late := percentile(millis(res.late), 0.99); late > 10 {
		t.Errorf("generator lateness p99 %.2fms: the generator blocked on the stall", late)
	}
	if len(res.wait) != n || res.wall < 400*time.Millisecond {
		t.Errorf("wait samples %d, wall %v", len(res.wait), res.wall)
	}
}

func TestOpenLoopFollowUpsAndFailures(t *testing.T) {
	var followUps atomic.Int64
	do := func(i int) (func() error, error) {
		switch i % 4 {
		case 0:
			return func() error { followUps.Add(1); return nil }, nil
		case 1:
			return func() error { return errors.New("follow-up failed") }, nil
		case 2:
			return nil, errors.New("failed")
		}
		return nil, nil
	}
	res := openLoop(time.Now, 40, 4000, 3, do)
	if res.attempted != 60 || len(res.lat) != 60 {
		t.Errorf("attempted %d with %d samples, want 60 (40 scripted + 20 follow-ups)", res.attempted, len(res.lat))
	}
	if res.failed != 20 || followUps.Load() != 10 {
		t.Errorf("failed %d (want 20), follow-ups %d (want 10)", res.failed, followUps.Load())
	}
	if empty := openLoop(time.Now, 0, 100, 2, do); empty.attempted != 0 {
		t.Errorf("empty replay attempted %d", empty.attempted)
	}
}

func TestTagTransport(t *testing.T) {
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = append(got, r.Header.Get(reqHeader))
	}))
	defer srv.Close()
	c := &http.Client{Transport: tagTransport{next: http.DefaultTransport}}
	for _, ctx := range []context.Context{withReq(context.Background(), 7), context.Background()} {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if len(got) != 2 || got[0] != "7" || got[1] != "" {
		t.Errorf("request IDs seen by the handler: %q", got)
	}
}
