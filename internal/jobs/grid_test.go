package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/gridworker"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
)

// startGridWorkers launches n worker endpoints (goroutines speaking the
// real TCP transport over loopback — functionally identical to n
// ptychoworker processes) and returns their individual kill switches.
func startGridWorkers(t *testing.T, s *Service, n int) []context.CancelFunc {
	t.Helper()
	cancels := make([]context.CancelFunc, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		t.Cleanup(cancel)
		go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: fmt.Sprintf("w%d", i)})
	}
	waitFor(t, "grid workers registered", func() bool {
		return len(s.GridWorkers()) == n
	})
	return cancels
}

// TestGridBitIdentical is the capstone: the same gd job run locally
// (in-process goroutine world) and on a 4-rank loopback-TCP grid must
// produce byte-for-byte identical final checkpoints and identical cost
// histories — the unmodified engine over a different transport, each
// rank on its own shard of the dataset.
func TestGridBitIdentical(t *testing.T) {
	s := assertGridBitIdentical(t, tinyProblem(t),
		Params{Algorithm: "gd", Iterations: 8, StepSize: 0.02, MeshRows: 2, MeshCols: 2})
	if s.grid.SessionsStarted() != 1 || s.grid.BytesRouted() == 0 {
		t.Fatalf("hub stats: %d sessions, %d bytes routed",
			s.grid.SessionsStarted(), s.grid.BytesRouted())
	}
}

// TestGridBitIdenticalHVE: an hve job ships each rank its extra rows
// (the default ExtraRows of 1) with its shard, and stays bit-identical.
func TestGridBitIdenticalHVE(t *testing.T) {
	assertGridBitIdentical(t, tinyProblem(t),
		Params{Algorithm: "hve", Iterations: 6, StepSize: 0.02, MeshRows: 2, MeshCols: 2})
}

// TestGridBitIdenticalWarmStart: a non-vacuum InitialObject reaches
// each rank as its halo-extended tile, and the result stays
// bit-identical.
func TestGridBitIdenticalWarmStart(t *testing.T) {
	prob := tinyProblem(t)
	init := phantom.RandomObject(prob.Pattern.ImageW, prob.Pattern.ImageH, prob.Slices, 3).Slices
	assertGridBitIdentical(t, prob, Params{Algorithm: "gd", Iterations: 6, StepSize: 0.02,
		MeshRows: 2, MeshCols: 2, InitialObject: init})
}

// TestGridBitIdenticalEmptyTile: a tile that owns no location gets an
// empty shard, and its rank still takes part in every exchange.
func TestGridBitIdenticalEmptyTile(t *testing.T) {
	prob := tinyProblem(t)
	// Keep only the locations right of or below the image centre, so
	// the top-left tile of the 2x2 mesh owns none.
	mid := float64(prob.Pattern.ImageW) / 2
	pat := *prob.Pattern
	pat.Locations = nil
	var meas []*grid.Float2D
	for i, l := range prob.Pattern.Locations {
		if l.X > mid || l.Y > mid {
			pat.Locations = append(pat.Locations, l)
			meas = append(meas, prob.Meas[i])
		}
	}
	empty := *prob
	empty.Pattern, empty.Meas = &pat, meas
	plan, err := engine.New(engine.Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, StepSize: 0.02, Iterations: 1},
		empty.ImageBounds(), empty.WindowN)
	if err != nil {
		t.Fatal(err)
	}
	if owned := plan.Mesh.AssignLocations(empty.Pattern); len(owned[0]) != 0 {
		t.Fatalf("fixture: tile 0 owns %d locations, want none", len(owned[0]))
	}
	assertGridBitIdentical(t, &empty,
		Params{Algorithm: "gd", Iterations: 6, StepSize: 0.02, MeshRows: 2, MeshCols: 2})
}

// assertGridBitIdentical runs params on prob locally and on a 4-rank
// loopback grid and fails unless both runs produce the same cost
// history and byte-identical final checkpoints. It returns the service
// for further checks.
func assertGridBitIdentical(t *testing.T, prob *solver.Problem, params Params) *Service {
	t.Helper()
	s := newTestService(t, Config{
		Workers: 2, QueueDepth: 8, CheckpointEvery: 3,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	startGridWorkers(t, s, 4)

	local, err := s.Submit(prob, params)
	if err != nil {
		t.Fatal(err)
	}
	gp := params
	gp.Grid = true
	dist, err := s.Submit(prob, gp)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "local job done", func() bool { return local.State() == Done })
	waitFor(t, "grid job done", func() bool { return dist.State() == Done })

	li, gi := local.Info(-1), dist.Info(-1)
	if gi.Error != "" {
		t.Fatalf("grid job error: %s", gi.Error)
	}
	if !gi.Grid {
		t.Fatal("grid job not marked as grid in Info")
	}
	iters := params.Iterations
	if len(li.CostHistory) != iters || len(gi.CostHistory) != iters {
		t.Fatalf("history lengths %d / %d, want %d", len(li.CostHistory), len(gi.CostHistory), iters)
	}
	for i := range li.CostHistory {
		if li.CostHistory[i] != gi.CostHistory[i] {
			t.Fatalf("iteration %d cost: local %.17g, grid %.17g (not bit-identical)",
				i, li.CostHistory[i], gi.CostHistory[i])
		}
	}

	localCk, localIter := local.CheckpointPath()
	gridCk, gridIter := dist.CheckpointPath()
	if localIter != iters || gridIter != iters {
		t.Fatalf("checkpoint iters %d / %d, want %d", localIter, gridIter, iters)
	}
	lb, err := os.ReadFile(localCk)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := os.ReadFile(gridCk)
	if err != nil {
		t.Fatal(err)
	}
	if len(lb) == 0 || string(lb) != string(gb) {
		t.Fatalf("final checkpoints differ: local %d bytes, grid %d bytes", len(lb), len(gb))
	}
	return s
}

// TestGridSetupBytes: on a dataset of the benchmark's shape (256
// locations, 32 px window) the four SETUP payloads of a 2x2 gd job
// together stay within 1.25 uploads — each rank receives its shard and
// tile, not the whole dataset and object.
func TestGridSetupBytes(t *testing.T) {
	pat, err := scan.Raster(scan.RasterConfig{Cols: 16, Rows: 16, StepPix: 4, RadiusPix: 8})
	if err != nil {
		t.Fatal(err)
	}
	meas := make([]*grid.Float2D, pat.N())
	for i := range meas {
		meas[i] = grid.NewFloat2DSize(32, 32)
	}
	prob := &solver.Problem{Pattern: pat, Meas: meas, Probe: physics.PaperOptics().Probe(32),
		WindowN: 32, Slices: 1}
	var upload bytes.Buffer
	if err := dataio.Write(&upload, prob); err != nil {
		t.Fatal(err)
	}
	plan, err := engine.New(engine.Spec{Algorithm: "gd", MeshRows: 2, MeshCols: 2, StepSize: 0.01, Iterations: 1},
		prob.ImageBounds(), prob.WindowN)
	if err != nil {
		t.Fatal(err)
	}
	setups, err := gridSetups(plan, prob, phantom.Vacuum(prob.ImageBounds(), 1).Slices, transport.Setup{JobID: "job-0001"})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range setups {
		b, err := transport.EncodeSetup(st)
		if err != nil {
			t.Fatal(err)
		}
		total += len(b)
	}
	if limit := upload.Len() * 5 / 4; total > limit {
		t.Fatalf("SETUP payloads total %d B, want at most %d B (1.25 x the %d B upload)",
			total, limit, upload.Len())
	}
}

// TestGridWorkerKilled is the capstone's failure half: killing a worker
// process mid-iteration fails the job cleanly (typed peer-lost error,
// no hang) with a final OBJCKv1 checkpoint flushed, from which Resume
// continues once the pool is healthy again.
func TestGridWorkerKilled(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 4, CheckpointEvery: 1,
		Timeout: 30 * time.Second, GridAddr: "127.0.0.1:0",
	})
	cancels := startGridWorkers(t, s, 4)

	j, err := s.Submit(prob, Params{
		Algorithm: "gd", Iterations: 500000, StepSize: 0.005,
		MeshRows: 2, MeshCols: 2, Grid: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the run to be demonstrably mid-flight (first periodic
	// checkpoint durable), then kill one worker process.
	waitFor(t, "first checkpoint", func() bool {
		_, iter := j.CheckpointPath()
		return iter >= 1
	})
	cancels[2]()

	waitFor(t, "job failed", func() bool { return j.State() == Failed })
	info := j.Info(0)
	if !strings.Contains(info.Error, "peer lost") {
		t.Fatalf("failure error %q does not name the lost peer", info.Error)
	}
	path, iter := j.CheckpointPath()
	if path == "" || iter < 1 {
		t.Fatalf("no final checkpoint flushed (path %q, iter %d)", path, iter)
	}
	slices, err := dataio.ReadObjectFile(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if len(slices) != prob.Slices || !slices[0].Bounds.Eq(prob.ImageBounds()) {
		t.Fatalf("checkpoint shape: %d slices on %v", len(slices), slices[0].Bounds)
	}

	// The job is resumable on the surviving pool (3 workers for a 2x2
	// mesh is not enough; a fresh 4th joins first).
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go gridworker.Run(ctx, s.GridAddr(), gridworker.Options{Name: "replacement"})
	waitFor(t, "replacement worker", func() bool {
		idle := 0
		for _, w := range s.GridWorkers() {
			if !w.Busy {
				idle++
			}
		}
		return idle >= 4
	})
	resumed, err := s.Resume(j.ID())
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed job running", func() bool {
		st := resumed.State()
		return st == Running || st.Terminal()
	})
	if err := s.Cancel(resumed.ID()); err != nil && !errors.Is(err, ErrFinished) {
		t.Fatal(err)
	}
	waitFor(t, "resumed job terminal", func() bool { return resumed.State().Terminal() })
}

// TestGridRequiresConfiguration: grid jobs are validated up front —
// no grid listener means ErrNoGrid at submit, and a serial algorithm
// can never run on the grid.
func TestGridRequiresConfiguration(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	if _, err := s.Submit(prob, Params{Algorithm: "gd", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("no-grid submit: got %v, want ErrInvalidParams (ErrNoGrid)", err)
	}

	sg := newTestService(t, Config{Workers: 1, QueueDepth: 4, GridAddr: "127.0.0.1:0"})
	if _, err := sg.Submit(prob, Params{Algorithm: "serial", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("serial grid submit: got %v, want ErrInvalidParams", err)
	}

	// Streaming jobs run on the local pool only; grid=1 must be
	// rejected up front rather than silently running locally while
	// reporting "grid": true.
	hdr := dataio.HeaderFromProblem(prob)
	if _, err := sg.SubmitStreaming(hdr, Params{Algorithm: "gd", Grid: true}); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("streaming grid submit: got %v, want ErrInvalidParams", err)
	}
}

// TestGridNoIdleWorkers: a grid job submitted with an empty worker pool
// fails with the transport's typed error instead of queueing forever.
func TestGridNoIdleWorkers(t *testing.T) {
	prob := tinyProblem(t)
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4, GridAddr: "127.0.0.1:0"})
	j, err := s.Submit(prob, Params{Algorithm: "gd", Iterations: 3, MeshRows: 2, MeshCols: 2, Grid: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job failed", func() bool { return j.State() == Failed })
	if info := j.Info(0); !strings.Contains(info.Error, "idle grid workers") {
		t.Fatalf("error %q does not report the empty pool", info.Error)
	}
	_ = transport.ErrNoWorkers // the typed error the message stems from
}
