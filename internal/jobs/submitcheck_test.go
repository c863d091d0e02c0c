package jobs

import (
	"errors"
	"strings"
	"testing"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
)

// TestSubmitRejectsUnrunnableEngine: parameters the engine itself would
// reject — a mesh larger than the image, hve tiles smaller than their
// halo, negative communication rounds, IntraWorkers above the cap — fail at submit with
// ErrInvalidParams (HTTP 400) instead of queuing a job that fails at
// run time. tinyProblem is a 27x27 image with an 8 px window (halo 5).
func TestSubmitRejectsUnrunnableEngine(t *testing.T) {
	prob := tinyProblem(t)
	hdr := dataio.HeaderFromProblem(prob)
	s := newTestService(t, Config{Workers: 1})
	cases := []struct {
		name      string
		p         Params
		streaming bool
		want      string
	}{
		{"gd mesh larger than image", Params{Algorithm: "gd", MeshRows: 40, MeshCols: 40}, false, "larger than image"},
		{"hve mesh larger than image", Params{Algorithm: "hve", MeshRows: 40, MeshCols: 40}, false, "larger than image"},
		{"hve tiles below halo", Params{Algorithm: "hve", MeshRows: 6, MeshCols: 6}, false, "tile (0,0) is 4x4, halo 5"},
		{"gd negative rounds", Params{Algorithm: "gd", RoundsPerIteration: -3}, false, "rounds per iteration"},
		// One over the cap: rejected at validation, so not one of its
		// pool goroutines is ever started.
		{"gd intra workers above cap", Params{Algorithm: "gd", IntraWorkers: engine.MaxIntraWorkers + 1}, false, "exceeds the cap"},
		{"streaming gd mesh larger than image", Params{Algorithm: "gd", MeshRows: 40, MeshCols: 40}, true, "larger than image"},
		{"streaming gd negative rounds", Params{Algorithm: "gd", RoundsPerIteration: -3}, true, "rounds per iteration"},
		{"streaming gd intra workers above cap", Params{Algorithm: "gd", IntraWorkers: engine.MaxIntraWorkers + 1}, true, "exceeds the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var j *Job
			var err error
			if tc.streaming {
				j, err = s.SubmitStreaming(hdr, tc.p)
			} else {
				j, err = s.Submit(prob, tc.p)
			}
			if err == nil {
				s.Cancel(j.ID())
			}
			if !errors.Is(err, ErrInvalidParams) {
				t.Fatalf("err %v, want ErrInvalidParams", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the problem %q", err, tc.want)
			}
		})
	}
	if n := s.QueueDepth(); n != 0 {
		t.Errorf("%d rejected jobs queued", n)
	}
}
