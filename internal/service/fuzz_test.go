package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridrealloc/internal/platform"
)

// frontalStatuses are the statuses the frontal POST endpoints document:
// success, a malformed (400) or oversized (413) body, an unknown cluster
// (404), a job no cluster can run (409) and a request the batch system
// refuses (422).
var frontalStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusConflict:              true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
}

// FuzzFrontalRequests posts one fuzzed body to each frontal POST endpoint of
// a fresh service on a small two-cluster platform: no handler may panic, and
// every answer must carry a documented status. Campaigns are left out: a
// fuzzed campaign can ask for simulations of any cost. Edge cases (extreme
// times, impossible widths, an oversized body) live in the committed corpus
// under testdata/fuzz.
func FuzzFrontalRequests(f *testing.F) {
	for _, seed := range []string{
		`{"cluster":"alpha","now":10,"job":{"id":1,"runtime":120,"walltime":600,"procs":4}}`,
		`{"cluster":"beta","now":0,"job":{"id":2,"submit":5,"runtime":0,"walltime":-1,"procs":1,"user":3},"reallocations":2}`,
		`{"cluster":"alpha","now":-5,"job_id":1}`,
		`{"cluster":"nope","job_id":7}`,
		`{"cluster":"alpha","bogus":1}`,
		`{"cluster":"alpha"} trailing`,
		`{"cluster":`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	plat := platform.Platform{Name: "fuzz", Clusters: []platform.ClusterSpec{
		{Name: "alpha", Cores: 8, Speed: 1},
		{Name: "beta", Cores: 4, Speed: 1.5},
	}}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(Config{Platform: plat, MaxBodyBytes: 1024, Now: time.Now})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Drain(context.Background())
		h := s.Handler()
		for _, path := range []string{"/v1/submit", "/v1/cancel", "/v1/estimate"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if !frontalStatuses[rec.Code] {
				t.Fatalf("POST %s answered %d: %s", path, rec.Code, rec.Body)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			t.Fatalf("/stats: %v", err)
		}
		if stats.HandlerPanics != 0 {
			t.Fatalf("%d handler panics", stats.HandlerPanics)
		}
	})
}
