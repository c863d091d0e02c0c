package solver

import (
	"ptychopath/internal/grid"
	"ptychopath/internal/multislice"
)

// Workspace is the per-worker scratch arena of the gradient hot path.
// It bundles everything one reconstruction worker (the stand-in for one
// GPU) needs to evaluate per-location gradients without touching the
// heap: a multislice engine (window-sized probe, exit-wave, slice-window
// and residual buffers plus FFT scratch) and, built on first use, one
// gradient array per object slice sized to the worker's bounds. All
// three engines — Serial, Gradient Decomposition and Halo Voxel
// Exchange — build exactly one Workspace per worker and reuse it for
// the whole run, which is what makes their steady-state gradient
// kernels allocation-free.
//
// Who uses the gradient arrays: the serial batch solver accumulates a
// whole iteration into them. The per-location updates — serial
// Sequential, gd ModeFaithful (Alg 1 line 8) and hve — need each
// location's gradient on its own, so they clear (ZeroWindow) and drain
// them over the location's window ∩ bounds only. A gd ModeBatch rank, its
// tiny-chunk fallback and ParallelGradient accumulate straight into
// AccBuf through Eng and never build them.
//
// A Workspace is NOT safe for concurrent use; concurrent workers (for
// example the IntraWorkers goroutine pool in gradsync) each own one.
type Workspace struct {
	// Eng is the wavefield engine; shared scratch for forward model and
	// adjoint.
	Eng *multislice.Engine

	bounds grid.Rect
	slices int
	grads  []*grid.Complex2D // built on first Grads() call
}

// NewWorkspace builds the per-worker arena for this problem with
// gradient arrays covering bounds (the full image for the serial
// solver, the extended tile for parallel workers). The gradient arrays
// materialize on first use, so callers that only need the engine — a
// gd ModeBatch rank, its tiny-chunk fallback and ParallelGradient,
// which accumulate straight into AccBuf — pay nothing for them.
func (p *Problem) NewWorkspace(bounds grid.Rect) *Workspace {
	return &Workspace{Eng: p.NewEngine(), bounds: bounds, slices: p.Slices}
}

// Grads returns the per-slice gradient scratch arrays (one per object
// slice, covering the workspace bounds), building them on first call.
// LossGrad accumulates into them; callers drain them into their
// algorithm state and clear them (ZeroGrads, or ZeroWindow per
// location).
func (ws *Workspace) Grads() []*grid.Complex2D {
	if ws.grads == nil {
		ws.grads = make([]*grid.Complex2D, ws.slices)
		for i := range ws.grads {
			ws.grads[i] = grid.NewComplex2D(ws.bounds)
		}
	}
	return ws.grads
}

// ZeroGrads clears the gradient scratch arrays in place.
func (ws *Workspace) ZeroGrads() {
	for _, g := range ws.Grads() {
		g.Zero()
	}
}

// ZeroWindow clears the gradient arrays over win ∩ bounds — all that a
// location evaluated at win writes — and returns that region, the only
// part a per-location update needs to drain.
func (ws *Workspace) ZeroWindow(win grid.Rect) grid.Rect {
	region := win.Intersect(ws.bounds)
	for _, g := range ws.Grads() {
		g.ZeroRegion(region)
	}
	return region
}

// LossGrad evaluates one probe location, accumulating the Wirtinger
// gradient into the workspace arrays, and returns the loss — the
// allocation-free per-location kernel.
func (ws *Workspace) LossGrad(slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D) float64 {
	return ws.Eng.LossGrad(slices, win, yAmp, ws.Grads())
}
