package multislice

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptychopath/internal/fft"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
)

// testSetup builds a small engine plus a random object.
func testSetup(t *testing.T, n, slices int, seed int64) (*Engine, []*grid.Complex2D) {
	t.Helper()
	o := physics.PaperOptics()
	probe := o.Probe(n)
	h := physics.FresnelPropagator(n, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
	eng := NewEngine(probe, h)
	obj := phantom.RandomObject(n+8, n+8, slices, seed)
	return eng, obj.Slices
}

func TestSimulateVacuumReproducesProbeSpectrum(t *testing.T) {
	// Through vacuum (t=1 everywhere) the far field is |F probe|,
	// regardless of slice count (propagators are unitary phase ramps
	// composed with FFTs, and |F P psi| = |H F psi| = |F psi|).
	n := 32
	o := physics.PaperOptics()
	probe := o.Probe(n)
	h := physics.FresnelPropagator(n, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
	eng := NewEngine(probe, h)
	vac := phantom.Vacuum(grid.RectWH(0, 0, n, n), 3)
	got := eng.Simulate(vac.Slices, grid.RectWH(0, 0, n, n))

	want := probe.Clone()
	fft.NewPlan2D(n, n).Transform(want, fft.Forward)
	for i := range got.Data {
		if math.Abs(got.Data[i]-cmplx.Abs(want.Data[i])) > 1e-9 {
			t.Fatalf("vacuum far field differs at %d: %g vs %g",
				i, got.Data[i], cmplx.Abs(want.Data[i]))
		}
	}
}

func TestSimulateEnergyConservedForPhaseObject(t *testing.T) {
	// A pure phase object with unit-modulus slices conserves energy:
	// sum |D|^2 = N^2 * sum |probe|^2 (Parseval with unnormalized FFT).
	n := 32
	o := physics.PaperOptics()
	probe := o.Probe(n)
	h := physics.FresnelPropagator(n, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
	eng := NewEngine(probe, h)

	bounds := grid.RectWH(0, 0, n, n)
	slices := make([]*grid.Complex2D, 3)
	rng := rand.New(rand.NewSource(5))
	for s := range slices {
		sl := grid.NewComplex2D(bounds)
		for i := range sl.Data {
			sl.Data[i] = cmplx.Exp(complex(0, rng.Float64()))
		}
		slices[s] = sl
	}
	amp := eng.Simulate(slices, bounds)
	var e float64
	for _, a := range amp.Data {
		e += a * a
	}
	want := float64(n*n) * probe.Norm2()
	if math.Abs(e-want) > 1e-6*want {
		t.Fatalf("energy %g, want %g", e, want)
	}
}

func TestLossZeroAtGroundTruth(t *testing.T) {
	eng, slices := testSetup(t, 16, 2, 1)
	win := grid.RectWH(2, 2, 16, 16)
	y := eng.Simulate(slices, win)
	if f := eng.Loss(slices, win, y); f > 1e-18 {
		t.Fatalf("loss at ground truth = %g, want ~0", f)
	}
}

func TestLossPositiveAwayFromTruth(t *testing.T) {
	eng, slices := testSetup(t, 16, 2, 2)
	win := grid.RectWH(0, 0, 16, 16)
	y := eng.Simulate(slices, win)
	perturbed := make([]*grid.Complex2D, len(slices))
	for i, s := range slices {
		perturbed[i] = s.Clone()
	}
	perturbed[0].Set(5, 5, perturbed[0].At(5, 5)+0.3) // inside the window
	if f := eng.Loss(perturbed, win, y); f <= 0 {
		t.Fatalf("loss = %g, want positive", f)
	}
}

// TestGradientMatchesFiniteDifferences is the central correctness test
// for the whole reconstruction: the hand-derived adjoint must agree with
// central differences in both the real and imaginary directions, for
// single and multiple slices, with and without propagation.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	cases := []struct {
		name   string
		slices int
		useH   bool
	}{
		{"1slice-noprop", 1, false},
		{"1slice-prop", 1, true},
		{"3slice-prop", 3, true},
		{"2slice-noprop", 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 8
			o := physics.PaperOptics()
			probe := o.Probe(n)
			var h *grid.Complex2D
			if tc.useH {
				h = physics.FresnelPropagator(n, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
			}
			eng := NewEngine(probe, h)
			obj := phantom.RandomObject(n+4, n+4, tc.slices, 7)
			win := grid.RectWH(2, 1, n, n)

			// Synthetic measurement from a different object so the
			// residual (and gradient) is non-zero.
			target := phantom.RandomObject(n+4, n+4, tc.slices, 8)
			y := eng.Simulate(target.Slices, win)

			grads := make([]*grid.Complex2D, tc.slices)
			for i := range grads {
				grads[i] = grid.NewComplex2D(obj.Slices[i].Bounds)
			}
			eng.LossGrad(obj.Slices, win, y, grads)

			const eps = 1e-6
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 12; trial++ {
				s := rng.Intn(tc.slices)
				// Probe a pixel inside the window.
				x := win.X0 + rng.Intn(n)
				yy := win.Y0 + rng.Intn(n)
				if !obj.Slices[s].Bounds.Contains(x, yy) {
					continue
				}
				g := grads[s].At(x, yy)

				perturb := func(d complex128) float64 {
					p := make([]*grid.Complex2D, tc.slices)
					for i := range p {
						p[i] = obj.Slices[i]
					}
					p[s] = obj.Slices[s].Clone()
					p[s].Set(x, yy, p[s].At(x, yy)+d)
					return eng.Loss(p, win, y)
				}
				fdRe := (perturb(complex(eps, 0)) - perturb(complex(-eps, 0))) / (2 * eps)
				fdIm := (perturb(complex(0, eps)) - perturb(complex(0, -eps))) / (2 * eps)
				if math.Abs(fdRe-2*real(g)) > 1e-4*(1+math.Abs(fdRe)) {
					t.Fatalf("slice %d (%d,%d): d/dRe fd=%g adj=%g", s, x, yy, fdRe, 2*real(g))
				}
				if math.Abs(fdIm-2*imag(g)) > 1e-4*(1+math.Abs(fdIm)) {
					t.Fatalf("slice %d (%d,%d): d/dIm fd=%g adj=%g", s, x, yy, fdIm, 2*imag(g))
				}
			}
		})
	}
}

func TestLossGradReturnsSameLossAsLoss(t *testing.T) {
	eng, slices := testSetup(t, 16, 2, 3)
	win := grid.RectWH(1, 1, 16, 16)
	target := phantom.RandomObject(24, 24, 2, 11)
	y := eng.Simulate(target.Slices, win)
	grads := []*grid.Complex2D{
		grid.NewComplex2D(slices[0].Bounds),
		grid.NewComplex2D(slices[1].Bounds),
	}
	f1 := eng.LossGrad(slices, win, y, grads)
	f2 := eng.Loss(slices, win, y)
	if math.Abs(f1-f2) > 1e-12*(1+f1) {
		t.Fatalf("LossGrad loss %g != Loss %g", f1, f2)
	}
}

func TestGradientAccumulates(t *testing.T) {
	// Two calls must sum into the gradient arrays (Eqn 2 summation).
	eng, slices := testSetup(t, 8, 1, 4)
	win := grid.RectWH(0, 0, 8, 8)
	target := phantom.RandomObject(16, 16, 1, 12)
	y := eng.Simulate(target.Slices, win)

	g1 := []*grid.Complex2D{grid.NewComplex2D(slices[0].Bounds)}
	eng.LossGrad(slices, win, y, g1)
	g2 := []*grid.Complex2D{grid.NewComplex2D(slices[0].Bounds)}
	eng.LossGrad(slices, win, y, g2)
	eng.LossGrad(slices, win, y, g2)
	for i := range g2[0].Data {
		if cmplx.Abs(g2[0].Data[i]-2*g1[0].Data[i]) > 1e-12*(1+cmplx.Abs(g2[0].Data[i])) {
			t.Fatal("gradient accumulation is not additive")
		}
	}
}

func TestGradientVanishesOutsideWindow(t *testing.T) {
	eng, slices := testSetup(t, 8, 2, 5)
	win := grid.RectWH(3, 3, 8, 8)
	target := phantom.RandomObject(16, 16, 2, 13)
	y := eng.Simulate(target.Slices, win)
	grads := []*grid.Complex2D{
		grid.NewComplex2D(slices[0].Bounds),
		grid.NewComplex2D(slices[1].Bounds),
	}
	eng.LossGrad(slices, win, y, grads)
	for _, g := range grads {
		for yy := g.Bounds.Y0; yy < g.Bounds.Y1; yy++ {
			for x := g.Bounds.X0; x < g.Bounds.X1; x++ {
				if !win.Contains(x, yy) && g.At(x, yy) != 0 {
					t.Fatalf("gradient leaked outside window at (%d,%d)", x, yy)
				}
			}
		}
	}
}

func TestWindowPartiallyOutsideObject(t *testing.T) {
	// Windows hanging off the object edge must not panic and must
	// produce finite loss and gradients (vacuum padding).
	eng, slices := testSetup(t, 8, 2, 6)
	win := grid.RectWH(-4, -4, 8, 8) // top-left corner overhang
	target := phantom.RandomObject(16, 16, 2, 14)
	y := eng.Simulate(target.Slices, win)
	grads := []*grid.Complex2D{
		grid.NewComplex2D(slices[0].Bounds),
		grid.NewComplex2D(slices[1].Bounds),
	}
	f := eng.LossGrad(slices, win, y, grads)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		t.Fatalf("loss = %g", f)
	}
	for _, g := range grads {
		if !g.IsFinite() {
			t.Fatal("gradient not finite")
		}
	}
}

func TestGradientRestrictedToArrayBounds(t *testing.T) {
	// Gradient arrays narrower than the window (a tile) receive only
	// their in-bounds portion — the tile-decomposition contract.
	eng, slices := testSetup(t, 8, 1, 7)
	win := grid.RectWH(0, 0, 8, 8)
	target := phantom.RandomObject(16, 16, 1, 15)
	y := eng.Simulate(target.Slices, win)

	full := []*grid.Complex2D{grid.NewComplex2D(slices[0].Bounds)}
	eng.LossGrad(slices, win, y, full)

	tile := grid.NewRect(2, 3, 7, 8)
	part := []*grid.Complex2D{grid.NewComplex2D(tile)}
	eng.LossGrad(slices, win, y, part)
	for yy := tile.Y0; yy < tile.Y1; yy++ {
		for x := tile.X0; x < tile.X1; x++ {
			if cmplx.Abs(part[0].At(x, yy)-full[0].At(x, yy)) > 1e-12 {
				t.Fatal("restricted gradient differs from full gradient on the tile")
			}
		}
	}
}

func TestMismatchedGradCountPanics(t *testing.T) {
	eng, slices := testSetup(t, 8, 2, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on grads/slices mismatch")
		}
	}()
	eng.LossGrad(slices, grid.RectWH(0, 0, 8, 8), grid.NewFloat2DSize(8, 8), nil)
}

func TestNonSquareProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on non-square probe")
		}
	}()
	NewEngine(grid.NewComplex2DSize(8, 9), nil)
}

func TestPropagatorShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on propagator shape mismatch")
		}
	}()
	NewEngine(grid.NewComplex2DSize(8, 8), grid.NewComplex2DSize(16, 16))
}

func TestFlopsPerLocationScaling(t *testing.T) {
	// More slices and larger windows must cost more; doubling n should
	// grow cost superlinearly (N log N per FFT).
	f1 := FlopsPerLocation(64, 4)
	f2 := FlopsPerLocation(64, 8)
	f3 := FlopsPerLocation(128, 4)
	if f2 <= f1 || f3 <= f1 {
		t.Fatal("flop model not monotone")
	}
	if f3/f1 < 4 {
		t.Fatalf("expected >= 4x cost for 2x window, got %g", f3/f1)
	}
}

func BenchmarkLossGrad64x64x4(b *testing.B) {
	o := physics.PaperOptics()
	probe := o.Probe(64)
	h := physics.FresnelPropagator(64, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
	eng := NewEngine(probe, h)
	obj := phantom.RandomObject(96, 96, 4, 1)
	win := grid.RectWH(10, 10, 64, 64)
	y := eng.Simulate(obj.Slices, win)
	grads := make([]*grid.Complex2D, 4)
	for i := range grads {
		grads[i] = grid.NewComplex2D(obj.Slices[i].Bounds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.LossGrad(obj.Slices, win, y, grads)
	}
}

// TestLossGradIndependentOfFFTRounding pins the amplitude residual's
// behaviour where the far field is rounding noise. A band-limited probe
// on a vacuum object has |D| ~ 1e-16 max|D| outside its aperture, while
// the measurement there is not zero. A relative perturbation of the
// probe at the rounding level (1e-15) must then move the gradient by
// rounding-level amounts only — not by the O(1) a noise-derived phase
// D/|D| in the residual would give.
func TestLossGradIndependentOfFFTRounding(t *testing.T) {
	for _, n := range []int{24, 32} {
		o := physics.PaperOptics()
		probe := o.Probe(n)
		h := physics.FresnelPropagator(n, o.PixelSizePM, o.Wavelength(), o.SliceThickPM)
		win := grid.RectWH(2, 2, n, n)
		// A random phase object scatters outside the aperture, so the
		// measured amplitude is nonzero everywhere.
		y := NewEngine(probe, h).Simulate(phantom.RandomObject(n+4, n+4, 2, 3).Slices, win)
		vac := phantom.Vacuum(grid.RectWH(0, 0, n+4, n+4), 2)

		grad := func(p *grid.Complex2D) []*grid.Complex2D {
			g := []*grid.Complex2D{grid.NewComplex2DSize(n+4, n+4), grid.NewComplex2DSize(n+4, n+4)}
			NewEngine(p, h).LossGrad(vac.Slices, win, y, g)
			return g
		}
		perturbed := probe.Clone()
		perturbed.Scale(complex(1+1e-15, 0))
		g0, g1 := grad(probe), grad(perturbed)
		var peak, diff float64
		for s := range g0 {
			for i, v := range g0[s].Data {
				peak = math.Max(peak, cmplx.Abs(v))
				diff = math.Max(diff, cmplx.Abs(v-g1[s].Data[i]))
			}
		}
		if peak == 0 || diff > 1e-12*peak {
			t.Errorf("n=%d: gradient moved by %.3g of its peak %.3g under a 1e-15 probe perturbation, want <= 1e-12",
				n, diff/peak, peak)
		}
	}
}
