package gradsync

import (
	"testing"

	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// TestWorkerGradientAllocationFree guards the Gradient Decomposition
// hot path: the per-location body of worker.Iterate (worker.location)
// — in ModeBatch the kernel accumulating straight into AccBuf, in
// ModeFaithful the window-sized clear, kernel and line-7/line-8 drains
// of the workspace stack — performs no heap allocations once the
// worker's arena is warm. Run on a 1x1 mesh so no concurrent rank
// pollutes the process-global allocation counter AllocsPerRun reads.
func TestWorkerGradientAllocationFree(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 2)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	for _, mode := range []Mode{ModeBatch, ModeFaithful} {
		opt := Options{Mesh: m, Mode: mode, StepSize: 0.01, Iterations: 1}
		w := testWorker(t, prob, &opt, 0)
		w.location(0)
		allocs := testing.AllocsPerRun(10, func() { w.location(0) })
		w.close()
		if allocs != 0 {
			t.Errorf("mode %d: gradsync per-location kernel allocates %v, want 0", mode, allocs)
		}
	}
}

// testWorker builds rank's worker for opt without running anything:
// newWorker reads only the rank from its transport, and the test
// workers never communicate. The caller closes it.
func testWorker(t testing.TB, prob *solver.Problem, opt *Options, rank int) *worker {
	t.Helper()
	if err := opt.validate(prob); err != nil {
		t.Fatal(err)
	}
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := opt.Mesh.AssignLocations(prob.Pattern)
	return newWorker(rankTransport{rank: rank}, prob, opt, owned, init.Slices)
}

// rankTransport reports a chosen rank and nothing else.
type rankTransport struct {
	simmpi.Transport
	rank int
}

func (r rankTransport) Rank() int { return r.rank }

// BenchmarkRankLocation measures one ModeBatch location on the first
// tile of a 2x2 mesh — the per-location body of a gd rank, kernel plus
// accumulation into AccBuf — and reports its allocations, which the CI
// benchmark gate holds at zero.
func BenchmarkRankLocation(b *testing.B) {
	prob, _ := buildProblem(b, 6, 6, 0.7, 1)
	m := mesh(b, prob, 2, 2, tiling.HaloForWindow(prob.WindowN))
	opt := Options{Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1}
	w := testWorker(b, prob, &opt, 0)
	defer w.close()
	w.location(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.location(i % len(w.owned))
	}
}

// TestIntraPoolPersistsAcrossChunks checks the IntraWorkers pool is
// built once per worker and its sub-workspaces are reused: dispatching
// two chunks through the pool allocates nothing after the first.
func TestIntraPoolPersistsAcrossChunks(t *testing.T) {
	prob, _ := buildProblem(t, 4, 4, 0.6, 1)
	m := mesh(t, prob, 1, 1, tiling.HaloForWindow(prob.WindowN))
	opt := Options{Mesh: m, Mode: ModeBatch, StepSize: 0.01, Iterations: 1, IntraWorkers: 2}
	if err := opt.validate(prob); err != nil {
		t.Fatal(err)
	}
	init := phantom.Vacuum(prob.ImageBounds(), prob.Slices)
	owned := m.AssignLocations(prob.Pattern)
	err := simmpi.Run(1, testTimeout, func(comm *simmpi.Comm) error {
		w := newWorker(comm, prob, &opt, owned, init.Slices)
		defer w.close()
		if w.intra == nil || len(w.intra.subs) != 2 {
			t.Errorf("expected a 2-sub persistent pool, got %+v", w.intra)
			return nil
		}
		n := len(w.owned)
		before := w.intra.subs[0].ws
		w.gradientChunkParallel(0, n)
		w.gradientChunkParallel(0, n)
		if w.intra.subs[0].ws != before {
			t.Error("sub-worker workspace was reallocated between chunks")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
