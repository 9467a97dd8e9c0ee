package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gridrealloc/internal/batch"
	"gridrealloc/internal/metrics"
	"gridrealloc/internal/server"
	"gridrealloc/internal/workload"
)

// JobPayload is the wire form of a workload.Job.
type JobPayload struct {
	ID       int   `json:"id"`
	Submit   int64 `json:"submit"`
	Runtime  int64 `json:"runtime"`
	Walltime int64 `json:"walltime"`
	Procs    int   `json:"procs"`
	User     int   `json:"user,omitempty"`
}

func (p JobPayload) toJob() workload.Job {
	return workload.Job{ID: p.ID, Submit: p.Submit, Runtime: p.Runtime,
		Walltime: p.Walltime, Procs: p.Procs, User: p.User}
}

func payloadOf(j workload.Job) JobPayload {
	return JobPayload{ID: j.ID, Submit: j.Submit, Runtime: j.Runtime,
		Walltime: j.Walltime, Procs: j.Procs, User: j.User}
}

// SubmitRequest asks one cluster's batch system to enqueue a job at virtual
// time Now (clamped forward to the cluster's current virtual time).
type SubmitRequest struct {
	Cluster       string     `json:"cluster"`
	Now           int64      `json:"now"`
	Job           JobPayload `json:"job"`
	Reallocations int        `json:"reallocations,omitempty"`
}

// SubmitResponse acknowledges a submission at the effective virtual time.
type SubmitResponse struct {
	Cluster string `json:"cluster"`
	Now     int64  `json:"now"`
}

// CancelRequest removes a waiting job from one cluster's queue.
type CancelRequest struct {
	Cluster string `json:"cluster"`
	Now     int64  `json:"now"`
	JobID   int    `json:"job_id"`
}

// CancelResponse returns the cancelled job and its accumulated
// reallocation count, for resubmission elsewhere.
type CancelResponse struct {
	Cluster       string     `json:"cluster"`
	Now           int64      `json:"now"`
	Job           JobPayload `json:"job"`
	Reallocations int        `json:"reallocations"`
}

// EstimateRequest asks for the estimated completion time of a hypothetical
// submission.
type EstimateRequest struct {
	Cluster string     `json:"cluster"`
	Now     int64      `json:"now"`
	Job     JobPayload `json:"job"`
}

// EstimateResponse carries the estimate; OK is false when the job can never
// run on the cluster.
type EstimateResponse struct {
	Cluster string `json:"cluster"`
	Now     int64  `json:"now"`
	ECT     int64  `json:"ect"`
	OK      bool   `json:"ok"`
}

// WaitingPayload is the wire form of one waiting-queue entry.
type WaitingPayload struct {
	Job           JobPayload `json:"job"`
	EnqueuedAt    int64      `json:"enqueued_at"`
	PlannedStart  int64      `json:"planned_start"`
	PlannedEnd    int64      `json:"planned_end"`
	Reallocations int        `json:"reallocations"`
	QueuePosition int        `json:"queue_position"`
}

// ListResponse is the waiting queue of one cluster.
type ListResponse struct {
	Cluster string           `json:"cluster"`
	Now     int64            `json:"now"`
	Waiting []WaitingPayload `json:"waiting"`
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status string     `json:"status"`
	Leases LeaseStats `json:"leases"`
}

// StatsResponse is the /stats body: daemon counters, latency histograms,
// the lease table and per-cluster request load.
type StatsResponse struct {
	Draining          bool                 `json:"draining"`
	CampaignsAdmitted int64                `json:"campaigns_admitted"`
	CampaignsRunning  int                  `json:"campaigns_running"`
	CampaignsPending  int                  `json:"campaigns_pending"`
	Shed              int64                `json:"shed"`
	HandlerPanics     int64                `json:"handler_panics"`
	Leases            LeaseStats           `json:"leases"`
	LeaseTable        []LeaseInfo          `json:"lease_table"`
	Latency           LatencySnapshot      `json:"latency"`
	Clusters          []server.RequestLoad `json:"clusters"`
}

// LatencySnapshot carries the p50/p99 serving-latency summaries.
type LatencySnapshot struct {
	Submit   metrics.HistogramSnapshot `json:"submit"`
	Estimate metrics.HistogramSnapshot `json:"estimate"`
	Campaign metrics.HistogramSnapshot `json:"campaign"`
}

// errorResponse is every non-2xx JSON body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP handler: the restricted cluster-frontal
// API, campaign submission and the health/stats endpoints, each wrapped in
// panic isolation.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.wrap(s.handleSubmit))
	mux.HandleFunc("POST /v1/cancel", s.wrap(s.handleCancel))
	mux.HandleFunc("POST /v1/estimate", s.wrap(s.handleEstimate))
	mux.HandleFunc("GET /v1/list", s.wrap(s.handleList))
	mux.HandleFunc("POST /v1/campaigns", s.wrap(s.handleCampaign))
	mux.HandleFunc("GET /healthz", s.wrap(s.handleHealthz))
	mux.HandleFunc("GET /stats", s.wrap(s.handleStats))
	return mux
}

// wrap is the per-connection panic isolation: a panicking handler is
// recovered into a 500 (when the response has not started) and counted;
// the process never dies with the tenant. Campaign worker panics never get
// here — the runner recovers them and quarantines the lease — so this guard
// catches only bugs in the HTTP layer itself, and still keeps every other
// connection alive.
func (s *Service) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.handlerPanic.Add(1)
				// Best effort: if the handler already streamed a body this
				// write is ignored by the server, and the connection is torn
				// down mid-stream, which the client sees as a broken stream
				// rather than a silent truncation.
				writeJSON(w, http.StatusInternalServerError,
					errorResponse{Error: fmt.Sprintf("internal error: %v", v)})
			}
		}()
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeStrict reads one JSON value from the request body under the
// configured size cap, rejecting unknown fields and trailing garbage.
func (s *Service) decodeStrict(w http.ResponseWriter, r *http.Request, dst any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	// A second value (or any non-space trailing bytes) is a malformed
	// request, not an extension point.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// rejectBody maps a decode failure to its status: 413 for an oversized
// body, 400 for everything malformed.
func rejectBody(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorResponse{Error: fmt.Sprintf("body exceeds %d bytes", tooBig.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request: " + err.Error()})
}

// lookup resolves a cluster by name, answering 404 itself on a miss.
func (s *Service) lookup(w http.ResponseWriter, name string) *cluster {
	c, ok := s.byName[name]
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("unknown cluster %q", name)})
		return nil
	}
	return c
}

// rejectIfDraining answers 503 once drain has begun so callers stop sending
// work; it reports whether the request was rejected.
func (s *Service) rejectIfDraining(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ErrDraining.Error()})
		return true
	}
	return false
}

// MaxVirtualTime bounds every time a frontal request carries: the virtual
// time now, and a job's submit time, runtime and walltime. The batch
// scheduler adds durations to times without overflow checks, so an
// unbounded value from a tenant could wrap a planned end and trip the
// scheduler's consistency panic; 2^40 seconds (about 34,800 years) leaves
// room for any real trace.
const MaxVirtualTime int64 = 1 << 40

// checkTimes rejects a request whose times exceed MaxVirtualTime; job may
// be nil for requests that carry none.
func checkTimes(now int64, job *JobPayload) error {
	if now > MaxVirtualTime {
		return fmt.Errorf("now %d exceeds the maximum virtual time %d", now, MaxVirtualTime)
	}
	if job != nil && max(job.Submit, job.Runtime, job.Walltime) > MaxVirtualTime {
		return fmt.Errorf("job %d: times exceed the maximum virtual time %d", job.ID, MaxVirtualTime)
	}
	return nil
}

// advanceLocked clamps the requested virtual time forward to the cluster's
// current time (virtual time never rewinds) and advances the scheduler.
// The caller holds c.mu.
func advanceLocked(c *cluster, now int64) (int64, error) {
	if cur := c.srv.Scheduler().Now(); now < cur {
		now = cur
	}
	if _, err := c.srv.Scheduler().Advance(now); err != nil {
		return now, err
	}
	return now, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	defer func() { s.submitHist.Observe(s.cfg.Now().Sub(start)) }()
	if s.rejectIfDraining(w) {
		return
	}
	var req SubmitRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		rejectBody(w, err)
		return
	}
	c := s.lookup(w, req.Cluster)
	if c == nil {
		return
	}
	if err := checkTimes(req.Now, &req.Job); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	c.mu.Lock()
	now, err := advanceLocked(c, req.Now)
	if err == nil {
		err = c.srv.Submit(req.Job.toJob(), now, req.Reallocations)
	}
	c.mu.Unlock()
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, server.ErrCannotRun) {
			code = http.StatusConflict
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{Cluster: req.Cluster, Now: now})
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	defer func() { s.submitHist.Observe(s.cfg.Now().Sub(start)) }()
	if s.rejectIfDraining(w) {
		return
	}
	var req CancelRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		rejectBody(w, err)
		return
	}
	c := s.lookup(w, req.Cluster)
	if c == nil {
		return
	}
	if err := checkTimes(req.Now, nil); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	c.mu.Lock()
	now, err := advanceLocked(c, req.Now)
	var job workload.Job
	var reallocs int
	if err == nil {
		job, reallocs, err = c.srv.Cancel(req.JobID, now)
	}
	c.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, CancelResponse{
		Cluster: req.Cluster, Now: now, Job: payloadOf(job), Reallocations: reallocs,
	})
}

func (s *Service) handleEstimate(w http.ResponseWriter, r *http.Request) {
	start := s.cfg.Now()
	defer func() { s.estimateHist.Observe(s.cfg.Now().Sub(start)) }()
	if s.rejectIfDraining(w) {
		return
	}
	var req EstimateRequest
	if err := s.decodeStrict(w, r, &req); err != nil {
		rejectBody(w, err)
		return
	}
	c := s.lookup(w, req.Cluster)
	if c == nil {
		return
	}
	if err := checkTimes(req.Now, &req.Job); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	c.mu.Lock()
	now, err := advanceLocked(c, req.Now)
	var ect int64
	var ok bool
	if err == nil {
		ect, ok = c.srv.EstimateCompletion(req.Job.toJob(), now)
	}
	c.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{Cluster: req.Cluster, Now: now, ECT: ect, OK: ok})
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	c := s.lookup(w, r.URL.Query().Get("cluster"))
	if c == nil {
		return
	}
	c.mu.Lock()
	now := c.srv.Scheduler().Now()
	waiting := c.srv.WaitingJobs()
	c.mu.Unlock()
	resp := ListResponse{Cluster: c.srv.Name(), Now: now, Waiting: make([]WaitingPayload, 0, len(waiting))}
	for _, wj := range waiting {
		resp.Waiting = append(resp.Waiting, waitingPayloadOf(wj))
	}
	writeJSON(w, http.StatusOK, resp)
}

func waitingPayloadOf(wj batch.WaitingJob) WaitingPayload {
	return WaitingPayload{
		Job:           payloadOf(wj.Job),
		EnqueuedAt:    wj.EnqueuedAt,
		PlannedStart:  wj.PlannedStart,
		PlannedEnd:    wj.PlannedEnd,
		Reallocations: wj.Reallocations,
		QueuePosition: wj.QueuePosition,
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", Leases: s.leases.Stats()}
	code := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		Draining:          s.draining.Load(),
		CampaignsAdmitted: s.campaigns.Load(),
		CampaignsRunning:  len(s.running),
		CampaignsPending:  len(s.pending),
		Shed:              s.shed.Load(),
		HandlerPanics:     s.handlerPanic.Load(),
		Leases:            s.leases.Stats(),
		LeaseTable:        s.leases.Snapshot(),
		Latency: LatencySnapshot{
			Submit:   s.submitHist.Snapshot(),
			Estimate: s.estimateHist.Snapshot(),
			Campaign: s.campaignHist.Snapshot(),
		},
		Clusters: make([]server.RequestLoad, 0, len(s.clusters)),
	}
	for _, c := range s.clusters {
		c.mu.Lock()
		resp.Clusters = append(resp.Clusters, c.srv.Load())
		c.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

// retryAfterSeconds is the Retry-After hint on 429 responses: long enough
// that a polite client backs off, short enough that shed work returns
// promptly once a campaign slot frees.
const retryAfterSeconds = 1

// shedResponse answers a load-shed arrival: 429 with a Retry-After hint.
func shedResponse(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	writeJSON(w, http.StatusTooManyRequests,
		errorResponse{Error: "at capacity: campaign queue full, retry later"})
}
