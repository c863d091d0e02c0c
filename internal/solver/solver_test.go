package solver

import (
	"math"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
)

// smallProblem generates a compact synthetic problem for solver tests.
func smallProblem(t testing.TB, slices int, noise float64) (*Problem, *phantom.Object) {
	t.Helper()
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: 4, Rows: 4, StepPix: 6, RadiusPix: 8, MarginPix: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := phantom.RandomObject(pat.ImageW, pat.ImageH, slices, 3)
	prob, err := Simulate(SimulateConfig{
		Optics:        physics.PaperOptics(),
		Pattern:       pat,
		Object:        obj,
		WindowN:       16,
		DoseElectrons: noise,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return prob, obj
}

func TestSimulateProducesValidProblem(t *testing.T) {
	prob, obj := smallProblem(t, 2, 0)
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
	if prob.Slices != 2 || len(prob.Meas) != 16 {
		t.Fatalf("slices=%d meas=%d", prob.Slices, len(prob.Meas))
	}
	// Noise-free cost at ground truth must be ~0.
	if f := Cost(prob, obj.Slices); f > 1e-15 {
		t.Fatalf("cost at truth = %g", f)
	}
}

func TestSimulateSingleSliceHasNoPropagator(t *testing.T) {
	prob, _ := smallProblem(t, 1, 0)
	if prob.Prop != nil {
		t.Fatal("single-slice problems must not build a propagator")
	}
}

func TestSimulateValidation(t *testing.T) {
	pat, _ := scan.Raster(scan.RasterConfig{Cols: 2, Rows: 2, StepPix: 4, RadiusPix: 4})
	obj := phantom.RandomObject(16, 16, 1, 1)
	if _, err := Simulate(SimulateConfig{Pattern: nil, Object: obj, WindowN: 8, Optics: physics.PaperOptics()}); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Simulate(SimulateConfig{Pattern: pat, Object: obj, WindowN: 0, Optics: physics.PaperOptics()}); err == nil {
		t.Error("zero window accepted")
	}
	bad := physics.PaperOptics()
	bad.EnergyEV = -1
	if _, err := Simulate(SimulateConfig{Pattern: pat, Object: obj, WindowN: 8, Optics: bad}); err == nil {
		t.Error("invalid optics accepted")
	}
}

func TestShotNoisePerturbsButPreservesScale(t *testing.T) {
	clean, _ := smallProblem(t, 1, 0)
	noisy, _ := smallProblem(t, 1, 1e6)
	var cleanE, noisyE, diff float64
	for i := range clean.Meas {
		for j := range clean.Meas[i].Data {
			c, n := clean.Meas[i].Data[j], noisy.Meas[i].Data[j]
			cleanE += c * c
			noisyE += n * n
			diff += (c - n) * (c - n)
		}
	}
	if diff == 0 {
		t.Fatal("noise had no effect")
	}
	if math.Abs(noisyE-cleanE) > 0.05*cleanE {
		t.Fatalf("noise broke energy scale: clean %g noisy %g", cleanE, noisyE)
	}
}

func TestBatchGradientDescentReducesCost(t *testing.T) {
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	res, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 12, Mode: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CostHistory) != 12 {
		t.Fatalf("history length %d", len(res.CostHistory))
	}
	first, last := res.CostHistory[0], res.CostHistory[len(res.CostHistory)-1]
	if last >= first {
		t.Fatalf("cost did not decrease: %g -> %g", first, last)
	}
	if last > 0.5*first {
		t.Fatalf("cost decreased too little: %g -> %g", first, last)
	}
}

func TestSequentialConvergesFasterPerIteration(t *testing.T) {
	// PIE-style sequential updates usually beat batch per iteration on
	// clean data; at minimum they must converge.
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	seq, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 8, Mode: Sequential,
	})
	if err != nil {
		t.Fatal(err)
	}
	if seq.CostHistory[7] >= seq.CostHistory[0] {
		t.Fatalf("sequential cost did not decrease: %v", seq.CostHistory)
	}
}

func TestMultiSliceReconstructionConverges(t *testing.T) {
	prob, obj := smallProblem(t, 2, 0)
	init := phantom.Vacuum(obj.Bounds(), 2)
	res, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 10, Mode: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostHistory[9] >= res.CostHistory[0]*0.8 {
		t.Fatalf("multi-slice did not converge: %v", res.CostHistory)
	}
}

func TestReconstructDoesNotMutateInit(t *testing.T) {
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	before := init.Slices[0].Clone()
	if _, err := Reconstruct(prob, init.Slices, Options{StepSize: 0.05, Iterations: 2, Mode: Batch}); err != nil {
		t.Fatal(err)
	}
	if init.Slices[0].MaxDiff(before) > 0 {
		t.Fatal("Reconstruct mutated its initial guess")
	}
}

func TestReconstructOptionValidation(t *testing.T) {
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	if _, err := Reconstruct(prob, init.Slices, Options{StepSize: 0, Iterations: 1}); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Reconstruct(prob, init.Slices, Options{StepSize: 1, Iterations: 0}); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Reconstruct(prob, init.Slices[:0], Options{StepSize: 1, Iterations: 1}); err == nil {
		t.Error("slice count mismatch accepted")
	}
	if _, err := Reconstruct(prob, init.Slices, Options{StepSize: 1, Iterations: 1, Mode: UpdateMode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestOnIterationCallback(t *testing.T) {
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	var calls []int
	_, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 3, Mode: Batch,
		Hooks: Hooks{OnIteration: func(it int, cost float64) { calls = append(calls, it) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[0] != 0 || calls[2] != 2 {
		t.Fatalf("callback calls: %v", calls)
	}
}

func TestTotalGradientMatchesPerLocationSum(t *testing.T) {
	prob, obj := smallProblem(t, 2, 0)
	slices := phantom.Vacuum(obj.Bounds(), 2).Slices
	grads, cost := TotalGradient(prob, slices, obj.Bounds())
	if cost <= 0 {
		t.Fatal("cost at vacuum must be positive")
	}
	// Manual accumulation must agree.
	eng := prob.NewEngine()
	manual := []*grid.Complex2D{grid.NewComplex2D(obj.Bounds()), grid.NewComplex2D(obj.Bounds())}
	for i, l := range prob.Pattern.Locations {
		eng.LossGrad(slices, l.Window(prob.WindowN), prob.Meas[i], manual)
	}
	for s := range grads {
		if grads[s].MaxDiff(manual[s]) > 1e-12 {
			t.Fatal("TotalGradient disagrees with manual accumulation")
		}
	}
}

func TestValidateCatchesBadMeasurements(t *testing.T) {
	prob, _ := smallProblem(t, 1, 0)
	prob.Meas[3] = grid.NewFloat2DSize(4, 4)
	if err := prob.Validate(); err == nil {
		t.Fatal("wrong measurement shape accepted")
	}
}

func TestSerialStopBelowCost(t *testing.T) {
	prob, obj := smallProblem(t, 1, 0)
	init := phantom.Vacuum(obj.Bounds(), 1)
	full, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 12, Mode: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	mid := full.CostHistory[len(full.CostHistory)/2]
	stopped, err := Reconstruct(prob, init.Slices, Options{
		StepSize: 0.02, Iterations: 12, Mode: Batch, StopBelowCost: mid,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stopped.CostHistory) >= len(full.CostHistory) {
		t.Fatal("early stop did not trigger")
	}
	if stopped.CostHistory[len(stopped.CostHistory)-1] >= mid {
		t.Fatal("stopped above threshold")
	}
}
