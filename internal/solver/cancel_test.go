package solver

import (
	"context"
	"errors"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
)

func cancelTestProblem(t *testing.T) *Problem {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 3, Rows: 3, StepPix: 6, RadiusPix: 6, MarginPix: 8})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, 1, 3)
	prob, err := Simulate(SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj, WindowN: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob
}

// TestCancelReturnsPartialResult: cancelling at an iteration boundary
// yields the partial slices and history alongside ctx's error, and
// resuming from the partial object reproduces the uninterrupted
// trajectory bit-for-bit.
func TestCancelReturnsPartialResult(t *testing.T) {
	prob := cancelTestProblem(t)
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
	const cancelAfter, total = 4, 10

	ctx, cancel := context.WithCancel(context.Background())
	partial, err := Reconstruct(prob, init, Options{
		StepSize: 0.01, Iterations: total, Mode: Batch, Hooks: Hooks{Ctx: ctx,
			OnIteration: func(iter int, cost float64) {
				if iter+1 == cancelAfter {
					cancel()
				}
			},
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if partial == nil || len(partial.CostHistory) != cancelAfter {
		t.Fatalf("partial result missing or wrong length: %+v", partial)
	}

	resumed, err := Reconstruct(prob, partial.Slices, Options{
		StepSize: 0.01, Iterations: total - cancelAfter, Mode: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Reconstruct(prob, init, Options{StepSize: 0.01, Iterations: total, Mode: Batch})
	if err != nil {
		t.Fatal(err)
	}
	for s := range ref.Slices {
		if d := resumed.Slices[s].MaxDiff(ref.Slices[s]); d != 0 {
			t.Fatalf("slice %d: resumed differs from uninterrupted by %g", s, d)
		}
	}
}

// TestSnapshotHook: OnSnapshot fires at the period and a snapshot error
// aborts the run.
func TestSnapshotHook(t *testing.T) {
	prob := cancelTestProblem(t)
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices

	var iters []int
	if _, err := Reconstruct(prob, init, Options{
		StepSize: 0.01, Iterations: 5, Mode: Batch, Hooks: Hooks{SnapshotEvery: 2,
			OnSnapshot: func(iter int, slices []*grid.Complex2D) error {
				iters = append(iters, iter)
				return nil
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 2 || iters[0] != 1 || iters[1] != 3 {
		t.Fatalf("snapshot iterations %v, want [1 3]", iters)
	}

	boom := errors.New("spool unwritable")
	if _, err := Reconstruct(prob, init, Options{
		StepSize: 0.01, Iterations: 5, Mode: Batch, Hooks: Hooks{SnapshotEvery: 1,
			OnSnapshot: func(int, []*grid.Complex2D) error { return boom },
		},
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want snapshot error", err)
	}
}
