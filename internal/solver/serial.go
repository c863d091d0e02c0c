package solver

import (
	"fmt"

	"ptychopath/internal/grid"
)

// UpdateMode selects between batch gradient descent (all gradients
// accumulated, one update per iteration) and sequential location-wise
// updates (PIE-style SGD, the mode Alg. 1 of the paper uses locally).
type UpdateMode int

const (
	// Batch accumulates the full gradient before updating — the
	// mathematical reference the parallel decomposition must match
	// exactly.
	Batch UpdateMode = iota
	// Sequential updates the object after every probe location in
	// acquisition order.
	Sequential
)

// Options configures the serial solvers.
type Options struct {
	StepSize   float64
	Iterations int
	Mode       UpdateMode
	// ProbeStepSize, when positive, enables joint object-probe
	// refinement: the probe wavefunction is descended alongside the
	// object (aberration/defect correction, paper Sec. II-B). The probe
	// update is normalized — each update moves the probe by at most
	// ProbeStepSize of its own peak magnitude along the gradient
	// direction — because the raw probe gradient carries an N^2 factor
	// from the detector-plane adjoint and would otherwise need
	// unintuitive ~1e-6 steps. Typical values: 0.02-0.1. The refined
	// probe is returned in Result.RefinedProbe.
	ProbeStepSize float64
	// StopBelowCost, when positive, ends the run early once the
	// iteration cost falls below it.
	StopBelowCost float64
	Hooks
}

// Check validates the options independently of a problem.
func (o *Options) Check() error {
	if o.StepSize <= 0 {
		return fmt.Errorf("solver: step size must be positive, got %g", o.StepSize)
	}
	if o.Iterations <= 0 {
		return fmt.Errorf("solver: iterations must be positive, got %d", o.Iterations)
	}
	if o.ProbeStepSize < 0 {
		return fmt.Errorf("solver: probe step size must be non-negative, got %g", o.ProbeStepSize)
	}
	if o.Mode != Batch && o.Mode != Sequential {
		return fmt.Errorf("solver: unknown update mode %d", o.Mode)
	}
	return nil
}

// Result carries the reconstruction and its convergence trace.
type Result struct {
	Slices      []*grid.Complex2D
	CostHistory []float64
	// RefinedProbe holds the jointly-refined probe when
	// Options.ProbeStepSize was set (nil otherwise).
	RefinedProbe *grid.Complex2D
}

// Reconstruct runs serial maximum-likelihood gradient descent from the
// given initial slices (copied, not mutated). It is the single-GPU
// reference implementation of the paper's Eqn. (1).
func Reconstruct(prob *Problem, init []*grid.Complex2D, opt Options) (*Result, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if len(init) != prob.Slices {
		return nil, fmt.Errorf("solver: %d initial slices, want %d", len(init), prob.Slices)
	}
	if err := opt.Check(); err != nil {
		return nil, err
	}
	slices := make([]*grid.Complex2D, len(init))
	for i, s := range init {
		slices[i] = s.Clone()
	}
	// One Workspace for the whole run: the engine's wavefield buffers,
	// FFT scratch and the gradient arrays are allocated here once and
	// reused by every probe location of every iteration.
	ws := prob.NewWorkspace(slices[0].Bounds)
	eng := ws.Eng
	grads := ws.Grads()
	step := complex(opt.StepSize, 0)
	hist := make([]float64, 0, opt.Iterations)

	refineProbe := opt.ProbeStepSize > 0
	var probe, probeGrad *grid.Complex2D
	var probeStep complex128
	if refineProbe {
		probe = eng.Probe().Clone()
		probeGrad = grid.NewComplex2D(probe.Bounds)
		probeStep = complex(opt.ProbeStepSize, 0)
	}
	lossGrad := func(i int, win grid.Rect) float64 {
		if refineProbe {
			return eng.LossGradProbe(slices, win, prob.Meas[i], grads, probeGrad)
		}
		return eng.LossGrad(slices, win, prob.Meas[i], grads)
	}
	// The probe step is auto-scaled once, from the first gradient: the
	// first update moves the probe peak by ProbeStepSize x its own
	// magnitude, and subsequent updates use the same fixed scale so the
	// step decays with the gradient (plain GD semantics, calibrated
	// units). Without this the raw probe gradient (which carries an N^2
	// detector-plane factor) needs ~1e-6 steps.
	probeScale := complex(0, 0)
	applyProbe := func() {
		if !refineProbe {
			return
		}
		if probeScale == 0 {
			if gMax := probeGrad.MaxAbs(); gMax > 0 {
				probeScale = probeStep * complex(probe.MaxAbs()/gMax, 0)
			}
		}
		probe.AddScaled(probeGrad, -probeScale)
		probeGrad.Zero()
		eng.SetProbe(probe)
	}

	for iter := 0; iter < opt.Iterations; iter++ {
		var cost float64
		switch opt.Mode {
		case Batch:
			for _, g := range grads {
				g.Zero()
			}
			for i, l := range prob.Pattern.Locations {
				cost += lossGrad(i, l.Window(prob.WindowN))
			}
			for s := range slices {
				slices[s].AddScaled(grads[s], -step)
			}
			applyProbe()
		case Sequential:
			for i, l := range prob.Pattern.Locations {
				// The location's gradient is nonzero only on its
				// window: clear and apply it over window ∩ image.
				win := l.Window(prob.WindowN)
				region := ws.ZeroWindow(win)
				cost += lossGrad(i, win)
				for s := range slices {
					slices[s].AddScaledRegion(grads[s], region, -step)
				}
				applyProbe()
			}
		}
		hist = append(hist, cost)
		opt.ReportIteration(iter, cost)
		if opt.SnapshotDue(iter) {
			if err := opt.Snapshot(iter, slices); err != nil {
				return nil, fmt.Errorf("solver: snapshot at iteration %d: %w", iter, err)
			}
		}
		if opt.StopBelowCost > 0 && cost < opt.StopBelowCost {
			break
		}
		if opt.Cancelled() {
			res := &Result{Slices: slices, CostHistory: hist}
			if refineProbe {
				res.RefinedProbe = probe
			}
			return res, opt.Ctx.Err()
		}
	}
	res := &Result{Slices: slices, CostHistory: hist}
	if refineProbe {
		res.RefinedProbe = probe
	}
	return res, nil
}
