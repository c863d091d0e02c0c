package gradsync

import (
	"context"
	"errors"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// TestCancellationReturnsPartialResult verifies the collective
// cancellation contract: every rank stops at the same iteration
// boundary, the partial stitched result comes back with Ctx's error,
// and the cost history length matches the completed iterations.
func TestCancellationReturnsPartialResult(t *testing.T) {
	prob, _ := buildProblem(t, 6, 6, 0.6, 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices

	const cancelAfter = 3
	ctx, cancel := context.WithCancel(context.Background())
	res, err := Reconstruct(prob, init, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 50,
		Timeout: testTimeout, Hooks: solver.Hooks{Ctx: ctx,
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
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if got := len(res.CostHistory); got != cancelAfter {
		t.Fatalf("completed %d iterations, want %d", got, cancelAfter)
	}

	// The partial object must equal an uninterrupted run truncated at
	// the same iteration count.
	ref, err := Reconstruct(prob, init, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: cancelAfter,
		Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range res.Slices {
		if d := res.Slices[s].MaxDiff(ref.Slices[s]); d != 0 {
			t.Fatalf("slice %d: partial result differs from truncated run by %g", s, d)
		}
	}
}

// TestSnapshotsAreStitchedAndPeriodic verifies OnSnapshot fires at the
// configured period with a stitched full-image object, and that the
// final snapshot equals the returned result.
func TestSnapshotsAreStitchedAndPeriodic(t *testing.T) {
	prob, _ := buildProblem(t, 6, 6, 0.6, 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices

	var iters []int
	var last []*grid.Complex2D
	res, err := Reconstruct(prob, init, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 7,
		Timeout: testTimeout, Hooks: solver.Hooks{SnapshotEvery: 2,
			OnSnapshot: func(iter int, slices []*grid.Complex2D) error {
				iters = append(iters, iter)
				if !slices[0].Bounds.Eq(prob.ImageBounds()) {
					t.Errorf("snapshot bounds %v, want full image %v", slices[0].Bounds, prob.ImageBounds())
				}
				last = slices
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, 5}; len(iters) != len(want) || iters[0] != 1 || iters[1] != 3 || iters[2] != 5 {
		t.Fatalf("snapshot iterations %v, want %v", iters, want)
	}
	// One more iteration ran after the last snapshot, so the final
	// object must differ from it — but resuming from the snapshot is
	// what the jobs service does, so the snapshot must be a genuine
	// intermediate state: re-running 1 iteration from it matches.
	cont, err := Reconstruct(prob, last, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range res.Slices {
		if d := cont.Slices[s].MaxDiff(res.Slices[s]); d > 1e-12 {
			t.Fatalf("slice %d: snapshot+1 iteration differs from full run by %g", s, d)
		}
	}
}

// TestSnapshotErrorAbortsAllRanks verifies a failing OnSnapshot stops
// the whole world without deadlock.
func TestSnapshotErrorAbortsAllRanks(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.5, 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices

	boom := errors.New("disk full")
	_, err := Reconstruct(prob, init, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 10,
		Timeout: testTimeout, Hooks: solver.Hooks{SnapshotEvery: 2,
			OnSnapshot: func(iter int, slices []*grid.Complex2D) error { return boom },
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the snapshot error", err)
	}
}
