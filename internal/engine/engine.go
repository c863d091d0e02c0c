// Package engine is the repository's single algorithm dispatch: it
// resolves an algorithm name and its parameters against a problem's
// geometry into a Plan. The plan is the only place the tile mesh, its
// halo and the hve extra rows are decided, and the only place an
// algorithm name selects an engine. Every caller — the public API,
// ptychorecon, the job service's local, streaming and grid paths, the
// grid worker and the runtime predictor — goes through it, so the
// in-process and distributed runs of one job build identical engines.
//
// A plan runs in process (Run), one rank at a time over any transport
// (RunRank, the grid worker's entry point, on the rank's Shard of the
// problem), and stitches rank outcomes received from elsewhere
// (Assemble, the grid coordinator's side).
// Every entry point takes the shared solver.Hooks.
package engine

import (
	"fmt"
	"slices"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/gradsync"
	"ptychopath/internal/grid"
	"ptychopath/internal/halo"
	"ptychopath/internal/scan"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// Algorithm names.
const (
	// Serial is single-worker gradient descent (internal/solver) — the
	// reference.
	Serial = "serial"
	// GD is the paper's Gradient Decomposition (internal/gradsync).
	GD = "gd"
	// HVE is the Halo Voxel Exchange baseline (internal/halo).
	HVE = "hve"
)

// DefaultExtraRows is the hve redundant scan rows a Spec gets when it
// leaves ExtraRows zero (the paper uses 2; one row suffices at the
// laptop scale of this repository).
const DefaultExtraRows = 1

// MaxIntraWorkers is the largest Spec.IntraWorkers a plan accepts: New
// fails above it, so every submit path answers it as invalid
// parameters before anything is queued or started. gradsync owns the
// value because its Options.Check enforces it for direct callers too.
const MaxIntraWorkers = gradsync.MaxIntraWorkers

// Spec states an engine and its parameters as a caller has them.
type Spec struct {
	// Algorithm is Serial, GD or HVE.
	Algorithm string
	// MeshRows and MeshCols shape the tile mesh of the parallel
	// engines (one rank per tile).
	MeshRows, MeshCols int
	// StepSize is the gradient-descent step; Iterations the run length.
	StepSize   float64
	Iterations int
	// RoundsPerIteration is the parallel engines' communication
	// frequency: gd passes or hve voxel exchanges per iteration.
	RoundsPerIteration int
	// IntraWorkers is gd's per-rank goroutine count (batch mode only,
	// at most MaxIntraWorkers).
	IntraWorkers int
	// Sequential switches serial to per-location (PIE-style) updates.
	Sequential bool
	// Faithful switches gd to the paper's literal Alg 1 updates.
	Faithful bool
	// DisableAPPP inserts barriers between gd's directional passes.
	DisableAPPP bool
	// ProbeStepSize enables serial joint object-probe refinement.
	ProbeStepSize float64
	// ExtraRows is hve's redundant scan rows; 0 selects
	// DefaultExtraRows. Other engines carry but ignore it.
	ExtraRows int
	// Timeout bounds the parallel engines' blocking communication.
	Timeout time.Duration
}

// Plan is a Spec resolved against one problem geometry.
type Plan struct {
	Spec
	// Halo is the tile halo that lets every tile cover its own probe
	// windows (tiling.HaloForWindow). hve exchanges over the same width.
	Halo int
	// Mesh is the tile mesh of a parallel engine (nil for serial).
	Mesh *tiling.Mesh

	// rank runs one rank of a parallel engine (nil for serial). It
	// takes the plan as an argument, so a copy with a different
	// iteration count (the streaming engine's epochs) runs as itself.
	rank func(p *Plan, comm simmpi.Transport, prob *solver.Problem,
		init []*grid.Complex2D, h solver.Hooks) (*collective.RankOutcome, error)
}

// New resolves s for a problem with the given image bounds and probe
// window: it selects the engine, derives the mesh and halo, applies the
// extra-rows default and runs the engine's own option check, so a plan
// that New returns can run.
func New(s Spec, image grid.Rect, windowN int) (*Plan, error) {
	if s.ExtraRows == 0 {
		s.ExtraRows = DefaultExtraRows
	}
	p := &Plan{Spec: s, Halo: tiling.HaloForWindow(windowN)}
	var check func() error
	switch s.Algorithm {
	case Serial:
		check = func() error { o := p.solverOptions(solver.Hooks{}); return o.Check() }
	case GD:
		p.rank = gdRank
		check = func() error { o := p.gdOptions(solver.Hooks{}); return o.Check() }
	case HVE:
		p.rank = hveRank
		check = func() error { o := p.hveOptions(solver.Hooks{}); return o.Check() }
	default:
		return nil, fmt.Errorf("engine: unknown algorithm %q (want %s, %s or %s)", s.Algorithm, Serial, GD, HVE)
	}
	if p.rank != nil {
		mesh, err := tiling.NewMesh(image, s.MeshRows, s.MeshCols, p.Halo)
		if err != nil {
			return nil, err
		}
		p.Mesh = mesh
	}
	if err := check(); err != nil {
		return nil, err
	}
	return p, nil
}

// Parallel reports whether the plan runs a tiled multi-rank engine.
func (p *Plan) Parallel() bool { return p.Mesh != nil }

// Ranks returns the number of ranks the plan runs on (1 for serial).
func (p *Plan) Ranks() int {
	if p.Mesh == nil {
		return 1
	}
	return p.Mesh.NumTiles()
}

// Result is an in-process run's outcome. For serial only Slices,
// CostHistory and RefinedProbe are set.
type Result struct {
	collective.Result
	// RefinedProbe is serial's jointly refined probe when ProbeStepSize
	// was set (nil otherwise).
	RefinedProbe *grid.Complex2D
}

// Run executes the plan in process — the serial solver, or one
// goroutine per tile. init (full image bounds) is not mutated. On
// cancellation through h.Ctx it returns the PARTIAL result together
// with the context's error.
func (p *Plan) Run(prob *solver.Problem, init []*grid.Complex2D, h solver.Hooks) (*Result, error) {
	if p.rank == nil {
		r, err := solver.Reconstruct(prob, init, p.solverOptions(h))
		if r == nil {
			return nil, err
		}
		return &Result{
			Result:       collective.Result{Slices: r.Slices, CostHistory: r.CostHistory},
			RefinedProbe: r.RefinedProbe,
		}, err
	}
	r, err := collective.Reconstruct(p.Mesh, p.Timeout, h.Ctx,
		func(comm simmpi.Transport) (*collective.RankOutcome, error) {
			return p.rank(p, comm, prob, init, h)
		})
	if r == nil {
		return nil, err
	}
	return &Result{Result: *r}, err
}

// RunRank executes this process's rank of a parallel plan over comm.
// Every rank of comm's world must call it with the same plan, and with
// either the full prob and init or its own Shard of them; Assemble
// stitches the outcomes.
func (p *Plan) RunRank(comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D,
	h solver.Hooks) (*collective.RankOutcome, error) {
	if p.rank == nil {
		return nil, fmt.Errorf("engine: %s is not a parallel algorithm", p.Algorithm)
	}
	return p.rank(p, comm, prob, init, h)
}

// TileBounds returns the halo-extended tile that rank of a parallel
// plan holds its object on: the region of the warm start it reads and
// of the result tile it returns. gd's mesh halo and hve's exchange
// halo are both Halo, so one rectangle serves both engines.
func (p *Plan) TileBounds(rank int) grid.Rect {
	r, c := p.Mesh.RowCol(rank)
	return p.Mesh.ExtendedWithHalo(r, c, p.Halo)
}

// Shard returns the part of prob and init that rank of a parallel plan
// computes on, so a remote rank receives only that: the locations the
// rank owns plus, for hve, its extra rows — each with its global Index,
// in global order — with their measurements, the shared probe and
// propagator and the unchanged image geometry, and the warm start
// restricted to TileBounds(rank). A rank that runs RunRank on its shard
// selects the same locations in the same order as on the full problem
// (the mesh depends only on the image bounds, and ownership only on a
// location's center), so its result is bit-identical. A tile that owns
// no location gets an empty shard. The shard shares the measurement
// and probe arrays with prob; the warm-start tile is a copy.
func (p *Plan) Shard(prob *solver.Problem, init []*grid.Complex2D, rank int) (*solver.Problem, []*grid.Complex2D, error) {
	if p.rank == nil {
		return nil, nil, fmt.Errorf("engine: %s is not a parallel algorithm", p.Algorithm)
	}
	if rank < 0 || rank >= p.Ranks() {
		return nil, nil, fmt.Errorf("engine: rank %d outside a %d-rank plan", rank, p.Ranks())
	}
	if len(init) != prob.Slices {
		return nil, nil, fmt.Errorf("engine: %d initial slices, want %d", len(init), prob.Slices)
	}
	ext := p.TileBounds(rank)
	tile := make([]*grid.Complex2D, len(init))
	for s, sl := range init {
		if !sl.Bounds.ContainsRect(ext) {
			return nil, nil, fmt.Errorf("engine: initial slice %d bounds %v do not cover rank %d's tile %v",
				s, sl.Bounds, rank, ext)
		}
		tile[s] = sl.Extract(ext)
	}

	owned := p.Mesh.AssignLocations(prob.Pattern)
	idx := owned[rank]
	if p.Algorithm == HVE {
		r, c := p.Mesh.RowCol(rank)
		idx = append(slices.Clone(idx), p.Mesh.ExtraRowLocations(prob.Pattern, owned, r, c, p.ExtraRows)...)
		slices.Sort(idx)
	}
	pat := *prob.Pattern
	pat.Locations = make([]scan.Location, len(idx))
	meas := make([]*grid.Float2D, len(idx))
	for k, i := range idx {
		pat.Locations[k] = prob.Pattern.Locations[i]
		meas[k] = prob.Meas[i]
	}
	shard := *prob
	shard.Pattern = &pat
	shard.Meas = meas
	return &shard, tile, nil
}

// Assemble stitches the rank outcomes of a parallel plan, in rank
// order, into the result an in-process Run would have produced.
func (p *Plan) Assemble(outs []*collective.RankOutcome) (*collective.Result, error) {
	return collective.Assemble(p.Mesh, outs)
}

func gdRank(p *Plan, comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D,
	h solver.Hooks) (*collective.RankOutcome, error) {
	return gradsync.RunRank(comm, prob, init, p.gdOptions(h))
}

func hveRank(p *Plan, comm simmpi.Transport, prob *solver.Problem, init []*grid.Complex2D,
	h solver.Hooks) (*collective.RankOutcome, error) {
	return halo.RunRank(comm, prob, init, p.hveOptions(h))
}

func (p *Plan) solverOptions(h solver.Hooks) solver.Options {
	mode := solver.Batch
	if p.Sequential {
		mode = solver.Sequential
	}
	return solver.Options{
		StepSize: p.StepSize, Iterations: p.Iterations, Mode: mode,
		ProbeStepSize: p.ProbeStepSize, Hooks: h,
	}
}

func (p *Plan) gdOptions(h solver.Hooks) gradsync.Options {
	mode := gradsync.ModeBatch
	if p.Faithful {
		mode = gradsync.ModeFaithful
	}
	return gradsync.Options{
		Mesh: p.Mesh, Mode: mode, StepSize: p.StepSize, Iterations: p.Iterations,
		RoundsPerIteration: p.RoundsPerIteration, DisableAPPP: p.DisableAPPP,
		IntraWorkers: p.IntraWorkers, Timeout: p.Timeout, Hooks: h,
	}
}

func (p *Plan) hveOptions(h solver.Hooks) halo.Options {
	return halo.Options{
		Mesh: p.Mesh, HaloWidth: p.Halo, ExtraRows: p.ExtraRows,
		StepSize: p.StepSize, Iterations: p.Iterations,
		ExchangesPerIteration: p.RoundsPerIteration, Timeout: p.Timeout, Hooks: h,
	}
}
