package engine_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/stream"
)

// problem is a 16-location, 8 px window dataset on a 27x27 image.
func problem(t *testing.T) *solver.Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 4, Rows: 4, StepPix: 5, RadiusPix: 6, MarginPix: 6})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat,
		Object: phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 1), WindowN: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// runner runs one engine for the given number of iterations with h.
type runner func(t *testing.T, prob *solver.Problem, iters int, h solver.Hooks) (costs int, err error)

// planRunner runs an algorithm through the dispatch on a 2x2 mesh.
func planRunner(alg string) runner {
	return func(t *testing.T, prob *solver.Problem, iters int, h solver.Hooks) (int, error) {
		plan, err := engine.New(engine.Spec{
			Algorithm: alg, MeshRows: 2, MeshCols: 2, StepSize: 0.01,
			Iterations: iters, Timeout: time.Minute,
		}, prob.ImageBounds(), prob.WindowN)
		if err != nil {
			t.Fatal(err)
		}
		r, err := plan.Run(prob, phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices, h)
		if r == nil {
			t.Fatalf("no result (err %v)", err)
		}
		return len(r.CostHistory), err
	}
}

// streamRunner feeds the whole dataset, closes the stream and runs the
// tail, so every iteration runs over the complete set.
func streamRunner(alg string) runner {
	return func(t *testing.T, prob *solver.Problem, iters int, h solver.Hooks) (int, error) {
		in := stream.NewIngest(0)
		if _, err := in.Append(dataio.FramesFromProblem(prob)); err != nil {
			t.Fatal(err)
		}
		in.CloseEOF()
		r, err := stream.Run(dataio.HeaderFromProblem(prob), in, stream.Options{
			Algorithm: alg, StepSize: 0.01, TailIterations: iters, Timeout: time.Minute,
			Hooks: h,
		})
		if r == nil {
			t.Fatalf("no result (err %v)", err)
		}
		return len(r.CostHistory), err
	}
}

// TestHooksContract holds every engine to the shared solver.Hooks
// contract: continuous iteration indices shifted by IterOffset,
// snapshots at the SnapshotEvery cadence, one OnRankStats call per rank
// per iteration for the parallel engines (none for the serial ones),
// and a partial result together with the context error on cancel.
func TestHooksContract(t *testing.T) {
	prob := problem(t)
	const iters, offset, every = 5, 7, 2
	cases := []struct {
		name  string
		run   runner
		ranks int // ranks reporting OnRankStats; 0 for the serial engines
	}{
		{"serial", planRunner(engine.Serial), 0},
		{"gd", planRunner(engine.GD), 4},
		{"hve", planRunner(engine.HVE), 4},
		{"stream-serial", streamRunner(engine.Serial), 0},
		{"stream-gd", streamRunner(engine.GD), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var seen, snaps []int
			stats := map[string]int{} // "rank/iter" -> calls
			n, err := tc.run(t, prob, iters, solver.Hooks{
				IterOffset:  offset,
				OnIteration: func(iter int, _ float64) { seen = append(seen, iter) },
				OnRankStats: func(rank, iter int, computeNS, commNS int64) {
					mu.Lock()
					stats[fmt.Sprintf("%d/%d", rank, iter)]++
					mu.Unlock()
					if computeNS < 0 || commNS < 0 {
						t.Errorf("rank %d iter %d: negative times (%d, %d)", rank, iter, computeNS, commNS)
					}
				},
				SnapshotEvery: every,
				OnSnapshot: func(iter int, slices []*grid.Complex2D) error {
					snaps = append(snaps, iter)
					if !slices[0].Bounds.Eq(prob.ImageBounds()) {
						t.Errorf("snapshot bounds %v, want the full image", slices[0].Bounds)
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != iters || len(seen) != iters {
				t.Fatalf("%d costs, %d OnIteration calls; want %d", n, len(seen), iters)
			}
			for i, it := range seen {
				if it != offset+i {
					t.Fatalf("OnIteration indices %v, want %d..%d", seen, offset, offset+iters-1)
				}
			}
			if fmt.Sprint(snaps) != fmt.Sprint([]int{offset + 1, offset + 3}) {
				t.Errorf("snapshots at %v, want [%d %d]", snaps, offset+1, offset+3)
			}
			if len(stats) != tc.ranks*iters {
				t.Errorf("OnRankStats covered %d rank-iterations, want %d: %v", len(stats), tc.ranks*iters, stats)
			}
			for rank := 0; rank < tc.ranks; rank++ {
				for i := 0; i < iters; i++ {
					if c := stats[fmt.Sprintf("%d/%d", rank, offset+i)]; c != 1 {
						t.Errorf("rank %d iteration %d: %d OnRankStats calls, want 1", rank, offset+i, c)
					}
				}
			}
		})
		t.Run(tc.name+"/cancel", func(t *testing.T) {
			const cancelAfter = 2
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			n, err := tc.run(t, prob, 50, solver.Hooks{
				Ctx: ctx,
				OnIteration: func(iter int, _ float64) {
					if iter+1 == cancelAfter {
						cancel()
					}
				},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if n != cancelAfter {
				t.Errorf("partial result has %d costs, want %d", n, cancelAfter)
			}
		})
	}
}
