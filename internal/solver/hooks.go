package solver

import (
	"context"

	"ptychopath/internal/grid"
)

// Hooks is the per-run callback contract every reconstruction engine
// shares: the serial solver here, the parallel engines
// (internal/gradsync, internal/halo) and the streaming engine
// (internal/stream) all embed it in their Options, and every engine
// honours every field (see ARCHITECTURE.md, "Engine contract").
//
// Iteration indices are 0-based and counted from the start of the run;
// every index a callback receives is shifted by IterOffset.
type Hooks struct {
	// Ctx, when non-nil, cancels the run at iteration boundaries: the
	// engine stops after the current iteration and returns its PARTIAL
	// result (object and cost history so far) together with Ctx's
	// error, so callers can checkpoint the in-progress object. The
	// parallel engines decide collectively — every rank stops at the
	// same iteration.
	Ctx context.Context
	// OnIteration, when non-nil, receives the iteration index and the
	// (global) cost F(V) measured during that iteration. The parallel
	// engines call it on rank 0 only.
	OnIteration func(iter int, cost float64)
	// OnRankStats, when non-nil, receives each rank's compute and
	// communication nanoseconds for each iteration. The parallel
	// engines call it on EVERY rank, concurrently in-process, so it
	// must be safe for concurrent use. The serial engines have one
	// rank and no communication, so they never call it.
	OnRankStats func(rank, iter int, computeNS, commNS int64)
	// IterOffset is added to every index reported to OnIteration,
	// OnRankStats and OnSnapshot. Callers that continue an earlier run
	// (resume, epoch-based streaming) use it to keep indices
	// continuous. It changes neither the iteration count nor the
	// snapshot cadence.
	IterOffset int
	// SnapshotEvery, together with OnSnapshot, emits the object after
	// every SnapshotEvery-th iteration of the run. The serial engines
	// pass their live buffers (valid only during the call — copy to
	// retain); the parallel engines pass a freshly stitched object on
	// rank 0. A non-nil error aborts the run.
	SnapshotEvery int
	OnSnapshot    func(iter int, slices []*grid.Complex2D) error
}

// ReportIteration calls OnIteration for run-local iteration iter.
func (h *Hooks) ReportIteration(iter int, cost float64) {
	if h.OnIteration != nil {
		h.OnIteration(h.IterOffset+iter, cost)
	}
}

// ReportRankStats calls OnRankStats for run-local iteration iter.
func (h *Hooks) ReportRankStats(rank, iter int, computeNS, commNS int64) {
	if h.OnRankStats != nil {
		h.OnRankStats(rank, h.IterOffset+iter, computeNS, commNS)
	}
}

// SnapshotDue reports whether a snapshot is owed after run-local
// iteration iter.
func (h *Hooks) SnapshotDue(iter int) bool {
	return h.SnapshotEvery > 0 && h.OnSnapshot != nil && (iter+1)%h.SnapshotEvery == 0
}

// Snapshot calls OnSnapshot for run-local iteration iter.
func (h *Hooks) Snapshot(iter int, slices []*grid.Complex2D) error {
	return h.OnSnapshot(h.IterOffset+iter, slices)
}

// Cancelled reports whether Ctx is done.
func (h *Hooks) Cancelled() bool {
	return h.Ctx != nil && h.Ctx.Err() != nil
}
