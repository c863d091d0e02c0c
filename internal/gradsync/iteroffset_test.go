package gradsync

import (
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// TestIterOffsetShiftsReportedIndices: epoch callers (internal/stream)
// re-run Reconstruct over a growing location set and rely on
// IterOffset to keep OnIteration / OnSnapshot indices continuous
// across epochs — without changing how many iterations run or what
// they compute.
func TestIterOffsetShiftsReportedIndices(t *testing.T) {
	prob, obj := buildProblem(t, 4, 4, 0.7, 1)
	init := phantom.Vacuum(obj.Bounds(), 1)
	m := mesh(t, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))

	const offset = 10
	var iters, snaps []int
	res, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 4,
		Timeout: testTimeout, Hooks: solver.Hooks{IterOffset: offset,
			OnIteration:   func(iter int, _ float64) { iters = append(iters, iter) },
			SnapshotEvery: 2,
			OnSnapshot: func(iter int, _ []*grid.Complex2D) error {
				snaps = append(snaps, iter)
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CostHistory) != 4 {
		t.Fatalf("ran %d iterations, want 4 (offset must not change the count)", len(res.CostHistory))
	}
	wantIters := []int{offset, offset + 1, offset + 2, offset + 3}
	if len(iters) != len(wantIters) {
		t.Fatalf("OnIteration fired %d times, want %d", len(iters), len(wantIters))
	}
	for i, w := range wantIters {
		if iters[i] != w {
			t.Errorf("OnIteration index %d: got %d, want %d", i, iters[i], w)
		}
	}
	wantSnaps := []int{offset + 1, offset + 3}
	if len(snaps) != len(wantSnaps) {
		t.Fatalf("OnSnapshot fired %d times, want %d", len(snaps), len(wantSnaps))
	}
	for i, w := range wantSnaps {
		if snaps[i] != w {
			t.Errorf("OnSnapshot index %d: got %d, want %d", i, snaps[i], w)
		}
	}

	// The trajectory itself is unchanged by the offset.
	ref, err := Reconstruct(prob, init.Slices, Options{
		Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 4, Timeout: testTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := range ref.Slices {
		if md := ref.Slices[s].MaxDiff(res.Slices[s]); md != 0 {
			t.Fatalf("slice %d: IterOffset changed the reconstruction by %g", s, md)
		}
	}
}
