package httpapi

// Wire-level crash recovery: the durable pieces of the /v1 surface —
// Idempotency-Key claims, job identity, the recovered_from marker and
// the /object endpoint — must hold across a server restart on the same
// state directory.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"testing"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/jobs/store/faultfs"
)

// durableServer builds one lifetime of the full stack — fault-injected
// filesystem, WAL store, service, HTTP server — on dir. crash() kills
// the filesystem first (synced records stay, every later write fails —
// process death, not graceful drain) and then tears the in-process
// half down.
func durableServer(t *testing.T, dir string) (ts *httptestServer, svc *jobs.Service, crash func()) {
	t.Helper()
	fault := faultfs.Wrap(faultfs.OS{})
	st, err := store.OpenWAL(store.WALConfig{Dir: dir, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	svc, err = jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 8, Store: st,
		SpoolDir: filepath.Join(dir, "checkpoints"), CheckpointEvery: 2,
	})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	server := newHTTPTestServer(t, svc)
	stopped := false
	teardown := func() {
		if stopped {
			return
		}
		stopped = true
		server.Close()
		svc.Shutdown()
		st.Close()
	}
	t.Cleanup(teardown)
	crash = func() {
		fault.Kill()
		teardown()
	}
	return &httptestServer{server.URL}, svc, crash
}

// httptestServer pins just the URL so a crashed lifetime cannot be
// accidentally reused.
type httptestServer struct{ URL string }

func postIdempotent(t *testing.T, url, key string, body io.Reader, ct string) (jobs.Info, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d (%s)", resp.StatusCode, raw)
	}
	var info jobs.Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info, resp.Header.Get("Idempotency-Replayed") == "true"
}

// TestV1IdempotencyAcrossRestart drives the crash-retry scenario a
// real producer hits: it submits with an Idempotency-Key, the server
// dies mid-run, and the producer's retry against the restarted server
// must replay the ORIGINAL job — now recovered and finishing — instead
// of enqueueing a duplicate reconstruction.
func TestV1IdempotencyAcrossRestart(t *testing.T) {
	prob := testProblem(t)
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const key = "acq-2026-08-08-a"

	ts1, _, crash1 := durableServer(t, dir)
	body, ct := multipartSubmit(t, `{"algorithm":"serial","iterations":300}`, upload.Bytes())
	first, replayed := postIdempotent(t, ts1.URL+"/v1/jobs", key, body, ct)
	if replayed {
		t.Fatal("first submission marked as a replay")
	}
	pollInfo(t, ts1.URL+"/v1/jobs/"+first.ID, "job running", func(i jobs.Info) bool { return i.State == "running" })
	// Crash mid-run: the synced WAL records (submit + key claim +
	// checkpoints) are on disk; the run itself is interrupted.
	crash1()

	ts2, svc2, _ := durableServer(t, dir)
	// Retry of the same submission: same key, same 202, same job ID,
	// flagged as a replay — and the job object now carries the
	// recovery marker.
	body, ct = multipartSubmit(t, `{"algorithm":"serial","iterations":300}`, upload.Bytes())
	second, replayed := postIdempotent(t, ts2.URL+"/v1/jobs", key, body, ct)
	if !replayed {
		t.Error("post-restart retry not marked Idempotency-Replayed")
	}
	if second.ID != first.ID {
		t.Fatalf("post-restart retry enqueued %s, want original %s", second.ID, first.ID)
	}
	if second.RecoveredFrom == "" {
		t.Error("recovered job missing recovered_from on the wire")
	}
	if all, _, _ := svc2.ListPage(jobs.ListOptions{}); len(all) != 1 {
		t.Fatalf("registry holds %d jobs after the retry, want 1", len(all))
	}

	fin := pollInfo(t, ts2.URL+"/v1/jobs/"+first.ID, "recovered job done", func(i jobs.Info) bool { return i.State == "done" })
	if fin.Iter != 300 {
		t.Errorf("recovered job finished at iter %d, want 300", fin.Iter)
	}
	// The finished object is servable from the recovered lifetime.
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + first.ID + "/object")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /object after recovery: status %d", resp.StatusCode)
	}
	if _, err := dataio.ReadObject(resp.Body); err != nil {
		t.Fatalf("decoding recovered object: %v", err)
	}
}
