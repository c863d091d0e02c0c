package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"ptychopath/client"
	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/obs"
)

// logRecord is one captured slog line: the message plus its attrs.
type logRecord struct {
	msg   string
	attrs map[string]string
}

// captureHandler is a slog.Handler that records every line, so the
// test can assert the request ID threads through HTTP and job logs.
type captureHandler struct {
	mu   sync.Mutex
	recs []logRecord
}

func (h *captureHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *captureHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *captureHandler) WithGroup(string) slog.Handler            { return h }
func (h *captureHandler) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{msg: r.Message, attrs: map[string]string{}}
	r.Attrs(func(a slog.Attr) bool {
		rec.attrs[a.Key] = a.Value.String()
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
	return nil
}

// find returns the captured records with msg whose attrs include every
// given key=value pair.
func (h *captureHandler) find(msg string, want map[string]string) []logRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []logRecord
next:
	for _, rec := range h.recs {
		if rec.msg != msg {
			continue
		}
		for k, v := range want {
			if rec.attrs[k] != v {
				continue next
			}
		}
		out = append(out, rec)
	}
	return out
}

// TestRequestIDPropagation follows one X-Request-ID end to end: the
// client sends it, every response echoes it (success and problem
// envelopes alike), the job adopts it as trace context, and both the
// HTTP request log and the job lifecycle log carry it.
func TestRequestIDPropagation(t *testing.T) {
	capture := &captureHandler{}
	logger := slog.New(capture)
	svc, err := jobs.NewService(jobs.Config{
		Workers: 2, QueueDepth: 8, SpoolDir: t.TempDir(), CheckpointEvery: 2,
		Logger: logger,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(New(svc, WithLogger(logger)).Handler())
	t.Cleanup(ts.Close)

	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	const rid = "e2e-trace-ctx-1"
	body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":2}`, upload.Bytes())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", body)
	req.Header.Set("Content-Type", ct)
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("submit response X-Request-ID %q, want %q", got, rid)
	}
	var job client.Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.RequestID != rid {
		t.Fatalf("job request_id %q, want %q", job.RequestID, rid)
	}

	// A problem envelope goes through the same middleware: the header
	// lands before the handler can write the error.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/no-such-job", nil)
	req.Header.Set("X-Request-ID", "lookup-miss-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "lookup-miss-7" {
		t.Fatalf("problem response X-Request-ID %q, want lookup-miss-7", got)
	}

	// No header (or a malformed one) gets a server-assigned hex ID.
	hexID := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, sent := range []string{"", "spaces are not tokens", strings.Repeat("x", 80)} {
		req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if sent != "" {
			req.Header.Set("X-Request-ID", sent)
		}
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Request-ID"); !hexID.MatchString(got) {
			t.Fatalf("sent %q, got X-Request-ID %q, want a fresh 16-hex-char ID", sent, got)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job); job.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal (state %s)", job.ID, job.State)
		}
		time.Sleep(time.Millisecond)
	}
	if job.State != client.StateDone {
		t.Fatalf("job state %s, want done", job.State)
	}

	// The job's span timeline carries the same ID...
	var tr client.JobTrace
	if status := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", &tr); status != http.StatusOK {
		t.Fatalf("trace: status %d", status)
	}
	if tr.Job.RequestID != rid {
		t.Fatalf("trace request_id %q, want %q", tr.Job.RequestID, rid)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}

	// ...and so do the log lines on both sides of the stack: the HTTP
	// request log and the job lifecycle log.
	if n := len(capture.find("http request", map[string]string{"request_id": rid})); n == 0 {
		t.Fatal("no http request log line with the request ID")
	}
	for _, msg := range []string{"job submitted", "job started", "job finished"} {
		if n := len(capture.find(msg, map[string]string{"request_id": rid, "job_id": job.ID})); n != 1 {
			t.Fatalf("%d %q log lines with request_id=%s job_id=%s, want 1", n, msg, rid, job.ID)
		}
	}
}

// TestTraceEndpoint pins the trace endpoint's three formats: the typed
// JSON timeline, the Chrome trace-event export, and the bad_params
// rejection of anything else. The route exists only under /v1.
func TestTraceEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":3}`, upload.Bytes())
	resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	var job client.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()

	deadline := time.Now().Add(30 * time.Second)
	for !job.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal", job.ID)
		}
		time.Sleep(time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
	}

	var tr client.JobTrace
	if status := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace", &tr); status != http.StatusOK {
		t.Fatalf("trace: status %d", status)
	}
	if tr.Job.ID != job.ID {
		t.Fatalf("trace job %q, want %q", tr.Job.ID, job.ID)
	}
	iterations := 0
	for _, sp := range tr.Spans {
		if sp.Name == "iteration" {
			iterations++
			if sp.MS < 0 {
				t.Fatalf("iteration span with negative ms: %+v", sp)
			}
		}
	}
	if iterations != 3 {
		t.Fatalf("%d iteration spans, want 3", iterations)
	}

	// Chrome export: a JSON array of complete ("X") events.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("chrome export is not a JSON array: %v", err)
	}
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("chrome export has no events")
	}
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Fatalf("chrome event ph %v, want X", ev["ph"])
		}
	}

	if status := getJSON(t, ts.URL+"/v1/jobs/"+job.ID+"/trace?format=flamegraph", nil); status != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d, want 400", status)
	}
	if status := getJSON(t, ts.URL+"/jobs/"+job.ID+"/trace", nil); status != http.StatusNotFound {
		t.Fatalf("unversioned trace route: status %d, want 404 (v1-only)", status)
	}
	if status := getJSON(t, ts.URL+"/v1/jobs/absent/trace", nil); status != http.StatusNotFound {
		t.Fatalf("missing job trace: status %d, want 404", status)
	}
}

// TestMetricsExpositionLint drives real traffic through the API and
// then strictly lints the ENTIRE /metrics scrape — every family the
// service and the HTTP layer expose must survive the exposition-format
// linter that is pickier than a Prometheus scraper.
func TestMetricsExpositionLint(t *testing.T) {
	ts, _ := newTestServer(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":2}`, upload.Bytes())
	resp, err := http.Post(ts.URL+"/v1/jobs", ct, body)
	if err != nil {
		t.Fatal(err)
	}
	var job client.Job
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	deadline := time.Now().Add(30 * time.Second)
	for !job.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job %s not terminal", job.ID)
		}
		time.Sleep(time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &job)
	}
	// A 404 and an unmatched route land in the histogram too.
	getJSON(t, ts.URL+"/v1/jobs/nope", nil)
	getJSON(t, ts.URL+"/totally/unknown", nil)

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintExposition(scrape); err != nil {
		t.Fatalf("/metrics fails the exposition lint: %v\n--- scrape ---\n%s", err, scrape)
	}

	// The observability families must be present and populated.
	for _, want := range []string{
		`ptychoserve_http_request_duration_seconds_bucket{route="POST /v1/jobs",status="202",le="+Inf"}`,
		`ptychoserve_http_request_duration_seconds_bucket{route="GET /v1/jobs/{id}",status="200",le="+Inf"}`,
		`ptychoserve_http_request_duration_seconds_bucket{route="GET /v1/jobs/{id}",status="404",le="+Inf"}`,
		`ptychoserve_http_request_duration_seconds_bucket{route="unmatched",status="404",le="+Inf"}`,
		"ptychoserve_job_queue_wait_seconds_count 1",
		"ptychoserve_iteration_duration_seconds_count 2",
		"ptychoserve_checkpoint_write_seconds_count",
		"ptychoserve_workers_idle 2",
		"ptychoserve_queue_depth 0",
		"ptychoserve_job_runtime_prediction_error_ratio_count 1",
		"ptychoserve_job_rank_imbalance_ratio_count 0",
		// Tenant accounting is always on: an unkeyed submission lands on
		// the anonymous tenant and its bounded-cardinality rows scrape.
		`ptychoserve_tenant_jobs_submitted_total{tenant="anonymous"} 1`,
		`ptychoserve_tenant_jobs_active{tenant="anonymous"} 0`,
		`ptychoserve_tenant_completed_cost_seconds_total{tenant="anonymous"}`,
		`ptychoserve_tenant_queue_wait_seconds_count{tenant="anonymous"} 1`,
		"ptychoserve_jobs_preempted_total 0",
		"ptychoserve_jobs_quota_rejected_total 0",
	} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("scrape missing %q\n--- scrape ---\n%s", want, scrape)
		}
	}
}
