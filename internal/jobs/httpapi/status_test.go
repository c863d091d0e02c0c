package httpapi

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"testing"

	"ptychopath/client"
	"ptychopath/internal/dataio"
)

// TestStatusAndDebugEndpoints drives the fleet-status rollup and the
// per-job debug bundle through the typed SDK: submit, wait, then check
// that one /v1/status poll and one /v1/jobs/{id}/debug fetch carry the
// whole operational picture.
func TestStatusAndDebugEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	ctx := context.Background()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || st.WorkersIdle != 2 || st.QueueDepth != 0 {
		t.Errorf("idle status %d/%d workers, queue %d; want 2/2, 0",
			st.WorkersIdle, st.Workers, st.QueueDepth)
	}
	for _, state := range []string{"queued", "running", "done", "failed", "cancelled"} {
		if _, ok := st.Jobs[state]; !ok {
			t.Errorf("job census missing state %q: %v", state, st.Jobs)
		}
	}
	if st.Grid != nil {
		t.Error("grid block present without a grid")
	}
	if st.Time.IsZero() || st.UptimeSeconds <= 0 {
		t.Errorf("time %v / uptime %v, want populated", st.Time, st.UptimeSeconds)
	}

	var upload bytes.Buffer
	if err := dataio.Write(&upload, testProblem(t)); err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(ctx, client.SubmitRequest{Algorithm: "serial", Iterations: 3}, &upload)
	if err != nil {
		t.Fatal(err)
	}
	if job.Prediction == nil || job.Prediction.Seconds <= 0 {
		t.Fatalf("submitted job carries no runtime prediction: %+v", job.Prediction)
	}
	job, err = c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != client.StateDone {
		t.Fatalf("job state %s (%s), want done", job.State, job.Error)
	}
	if job.ActualSeconds <= 0 || job.PredictionErrorRatio <= 0 {
		t.Errorf("finished job actual=%v ratio=%v, want both > 0",
			job.ActualSeconds, job.PredictionErrorRatio)
	}

	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Jobs["done"] != 1 {
		t.Errorf("job census %v, want one done", st.Jobs)
	}
	if st.Prediction.Jobs != 1 || st.Prediction.LastErrorRatio != job.PredictionErrorRatio {
		t.Errorf("prediction summary %+v does not reflect the scored job (ratio %v)",
			st.Prediction, job.PredictionErrorRatio)
	}
	if st.Prediction.CalibrationIters == 0 {
		t.Error("no calibration iterations after a 3-iteration job")
	}

	db, err := c.Debug(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if db.Job.ID != job.ID || db.Job.State != client.StateDone {
		t.Errorf("debug job %s/%s, want %s/done", db.Job.ID, db.Job.State, job.ID)
	}
	// The bundle carries the COMPLETE cost history, not the polling tail.
	if len(db.Job.CostHistory) != 3 {
		t.Errorf("debug cost history length %d, want 3", len(db.Job.CostHistory))
	}
	if db.Params.Algorithm != "serial" || db.Params.Iterations != 3 {
		t.Errorf("debug params %+v, want the submitted serial/3", db.Params)
	}
	if len(db.Spans) == 0 {
		t.Error("debug bundle has no spans")
	}
	kinds := map[string]bool{}
	for _, e := range db.Events {
		if e.Time.IsZero() {
			t.Fatalf("flight event without a timestamp: %+v", e)
		}
		kinds[e.Kind] = true
	}
	for _, want := range []string{"prediction", "state", "iteration", "checkpoint"} {
		if !kinds[want] {
			t.Errorf("flight recorder missing %q events (have %v)", want, kinds)
		}
	}

	if _, err := c.Debug(ctx, "no-such-job"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("debug of a missing job: %v, want ErrNotFound", err)
	}
	// Both endpoints are /v1-only: no unversioned alias.
	if status := getJSON(t, ts.URL+"/status", nil); status != http.StatusNotFound {
		t.Errorf("unversioned /status: %d, want 404", status)
	}
	if status := getJSON(t, ts.URL+"/jobs/"+job.ID+"/debug", nil); status != http.StatusNotFound {
		t.Errorf("unversioned debug route: %d, want 404", status)
	}
}
