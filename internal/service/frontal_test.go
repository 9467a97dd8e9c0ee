package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestFrontalCancelEstimateRoundTrip walks the full restricted-API cycle the
// paper's middleware is limited to: submit, list, estimate elsewhere, cancel
// and resubmit — the observe-and-resubmit reallocation primitive over HTTP.
func TestFrontalCancelEstimateRoundTrip(t *testing.T) {
	_, c := newTestService(t, nil)
	ctx := context.Background()
	job := JobPayload{ID: 7, Submit: 0, Runtime: 120, Walltime: 600, Procs: 16, User: 3}

	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Now: 10, Job: job}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	list, err := c.List(ctx, "bordeaux")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	// The cluster is empty, so the job starts immediately and the waiting
	// queue may or may not contain it depending on planning; what matters is
	// that the endpoint answers with the cluster's view.
	if list.Cluster != "bordeaux" {
		t.Fatalf("list = %+v", list)
	}

	est, err := c.Estimate(ctx, EstimateRequest{Cluster: "lyon", Now: 10, Job: JobPayload{ID: 8, Runtime: 60, Walltime: 300, Procs: 8}})
	if err != nil {
		t.Fatalf("estimate: %v", err)
	}
	if !est.OK || est.ECT <= 0 {
		t.Fatalf("estimate = %+v", est)
	}
	// A job wider than the cluster can never run: OK must be false, not an
	// error (the middleware uses this to rule clusters out).
	est, err = c.Estimate(ctx, EstimateRequest{Cluster: "lyon", Now: 10, Job: JobPayload{ID: 9, Runtime: 60, Walltime: 300, Procs: 1 << 20}})
	if err != nil || est.OK {
		t.Fatalf("impossible estimate = %+v, %v", est, err)
	}
}

func TestFrontalErrorStatuses(t *testing.T) {
	_, c := newTestService(t, nil)
	ctx := context.Background()

	// Unknown cluster: 404 on every frontal endpoint.
	var apiErr *APIError
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "nope", Job: JobPayload{ID: 1, Runtime: 1, Walltime: 2, Procs: 1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("submit to unknown cluster: %v", err)
	}
	if !strings.Contains(apiErr.Error(), "unknown cluster") {
		t.Fatalf("APIError.Error() = %q", apiErr.Error())
	}
	if _, err := c.Estimate(ctx, EstimateRequest{Cluster: "nope", Job: JobPayload{ID: 1, Runtime: 1, Walltime: 2, Procs: 1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("estimate on unknown cluster: %v", err)
	}
	if _, err := c.Cancel(ctx, CancelRequest{Cluster: "nope", JobID: 1}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("cancel on unknown cluster: %v", err)
	}
	if _, err := c.List(ctx, "nope"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("list of unknown cluster: %v", err)
	}

	// Cancelling a job that is not waiting: 422 with the scheduler's reason.
	if _, err := c.Cancel(ctx, CancelRequest{Cluster: "bordeaux", JobID: 999}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("cancel of unknown job: %v", err)
	}

	// A job no cluster could ever run: 409 (ErrCannotRun), distinct from 422.
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Job: JobPayload{ID: 2, Runtime: 1, Walltime: 2, Procs: 1 << 20}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("impossible submit: %v", err)
	}

	// Times past MaxVirtualTime: 422 before they reach the scheduler, whose
	// planned ends would wrap.
	huge := JobPayload{ID: 3, Runtime: 1, Walltime: MaxVirtualTime + 1, Procs: 1}
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Job: huge}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("submit with an oversized walltime: %v", err)
	}
	if _, err := c.Estimate(ctx, EstimateRequest{Cluster: "bordeaux", Now: MaxVirtualTime + 1, Job: JobPayload{ID: 4, Runtime: 1, Walltime: 2, Procs: 1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("estimate past the maximum virtual time: %v", err)
	}
	if _, err := c.Cancel(ctx, CancelRequest{Cluster: "bordeaux", Now: MaxVirtualTime + 1, JobID: 1}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
		t.Fatalf("cancel past the maximum virtual time: %v", err)
	}
}

// TestFrontalRejectsDrainingAndReportsIt covers the draining frontal paths:
// every endpoint answers 503, /healthz flips to "draining", and the
// Draining accessor reports it.
func TestFrontalRejectsDrainingAndReportsIt(t *testing.T) {
	s, c := newTestService(t, nil)
	ctx := context.Background()
	if s.Draining() {
		t.Fatal("fresh service reports draining")
	}
	s.BeginDrain()
	if !s.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	var apiErr *APIError
	if _, err := c.Submit(ctx, SubmitRequest{Cluster: "bordeaux", Job: JobPayload{ID: 1, Runtime: 1, Walltime: 2, Procs: 1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v", err)
	}
	if _, err := c.Cancel(ctx, CancelRequest{Cluster: "bordeaux", JobID: 1}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("cancel while draining: %v", err)
	}
	if _, err := c.Estimate(ctx, EstimateRequest{Cluster: "bordeaux", Job: JobPayload{ID: 1, Runtime: 1, Walltime: 2, Procs: 1}}); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("estimate while draining: %v", err)
	}
	if _, err := c.List(ctx, "bordeaux"); !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("list while draining: %v", err)
	}
	status, err := c.Healthz(ctx)
	if err != nil || status != "draining" {
		t.Fatalf("healthz while draining = %q, %v", status, err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
}

// TestConfigDefaults pins every zero-value knob of the service Config.
func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if len(cfg.Platform.Clusters) == 0 || cfg.Policy != "FCFS" {
		t.Fatalf("platform/policy defaults: %+v", cfg)
	}
	if cfg.Sims != 4 || cfg.MaxCampaigns != 2 || cfg.MaxPending != 4 {
		t.Fatalf("pool defaults: %+v", cfg)
	}
	if cfg.RequestTimeout <= 0 || cfg.CampaignTimeout <= 0 || cfg.WriteTimeout <= 0 ||
		cfg.DrainBudget <= 0 || cfg.MaxBodyBytes != 8<<20 || cfg.MaxCampaignScenarios != 4096 {
		t.Fatalf("limit defaults: %+v", cfg)
	}
	// A negative MaxPending means "no queue at all", not the default.
	if got := (Config{MaxPending: -1}).withDefaults().MaxPending; got != 0 {
		t.Fatalf("MaxPending -1 -> %d, want 0", got)
	}
	// Now is deliberately NOT defaulted: New must fail without a clock.
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil clock")
	}
	// An invalid policy fails construction.
	if _, err := New(Config{Policy: "banana", Now: time.Now}); err == nil {
		t.Fatal("New accepted an invalid policy")
	}
}
