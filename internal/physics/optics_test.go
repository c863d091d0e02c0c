package physics

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptychopath/internal/fft"
	"ptychopath/internal/grid"
)

func TestElectronWavelengthKnownValues(t *testing.T) {
	// Standard TEM reference values (pm).
	cases := []struct {
		keV  float64
		want float64
		tol  float64
	}{
		{100, 3.701, 0.01},
		{200, 2.508, 0.01},
		{300, 1.969, 0.01},
	}
	for _, c := range cases {
		got := ElectronWavelength(c.keV * 1000)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("lambda(%g keV) = %g pm, want %g±%g", c.keV, got, c.want, c.tol)
		}
	}
}

func TestElectronWavelengthPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic for E <= 0")
		}
	}()
	ElectronWavelength(0)
}

func TestPaperOpticsValid(t *testing.T) {
	o := PaperOptics()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.EnergyEV != 200e3 || o.ApertureMrad != 30 || o.DefocusPM != 25e3 {
		t.Fatal("paper optics constants drifted")
	}
	if math.Abs(o.Wavelength()-2.508) > 0.01 {
		t.Fatalf("paper wavelength = %g", o.Wavelength())
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Optics{
		{EnergyEV: 0, ApertureMrad: 30, PixelSizePM: 10, SliceThickPM: 125},
		{EnergyEV: 2e5, ApertureMrad: 0, PixelSizePM: 10, SliceThickPM: 125},
		{EnergyEV: 2e5, ApertureMrad: 30, PixelSizePM: 0, SliceThickPM: 125},
		{EnergyEV: 2e5, ApertureMrad: 30, PixelSizePM: 10, SliceThickPM: 0},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("case %d: Validate accepted invalid optics", i)
		}
	}
}

func TestProbeNormalizedAndCentered(t *testing.T) {
	o := PaperOptics()
	p := o.Probe(64)
	if got := p.Norm2(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("probe intensity = %g, want 1", got)
	}
	// Intensity centroid should be at the array center.
	var cx, cy, tot float64
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			w := cmplx.Abs(p.At(x, y))
			w *= w
			cx += float64(x) * w
			cy += float64(y) * w
			tot += w
		}
	}
	cx /= tot
	cy /= tot
	// The 25 nm defocused probe is larger than a 64 px window, so tails
	// wrap and skew the centroid slightly; a couple of pixels is fine.
	if math.Abs(cx-32) > 2.0 || math.Abs(cy-32) > 2.0 {
		t.Fatalf("probe centroid (%g, %g), want near (32, 32)", cx, cy)
	}
	if !p.IsFinite() {
		t.Fatal("probe has non-finite values")
	}
}

func TestProbeDefocusSpreadsProbe(t *testing.T) {
	// More defocus must enlarge the real-space probe footprint.
	inFocus := PaperOptics()
	inFocus.DefocusPM = 0
	defocused := PaperOptics()
	defocused.DefocusPM = 50e3

	rIn := ProbeRadiusPM(inFocus.Probe(128), inFocus.PixelSizePM, 0.9)
	rOut := ProbeRadiusPM(defocused.Probe(128), defocused.PixelSizePM, 0.9)
	if rOut <= rIn {
		t.Fatalf("defocused radius %g pm <= focused radius %g pm", rOut, rIn)
	}
}

func TestProbeRadiusEnergyFractionMonotone(t *testing.T) {
	o := PaperOptics()
	p := o.Probe(64)
	r50 := ProbeRadiusPM(p, o.PixelSizePM, 0.5)
	r90 := ProbeRadiusPM(p, o.PixelSizePM, 0.9)
	r99 := ProbeRadiusPM(p, o.PixelSizePM, 0.99)
	if !(r50 < r90 && r90 < r99) {
		t.Fatalf("radius not monotone in energy fraction: %g %g %g", r50, r90, r99)
	}
	if r50 <= 0 {
		t.Fatal("radius must be positive")
	}
}

func TestFresnelPropagatorUnitModulus(t *testing.T) {
	h := FresnelPropagator(32, 10, 2.508, 125)
	for i, v := range h.Data {
		if math.Abs(cmplx.Abs(v)-1) > 1e-12 {
			t.Fatalf("|H[%d]| = %g, want 1", i, cmplx.Abs(v))
		}
	}
	// DC component must be exactly 1 (no phase at k=0).
	if cmplx.Abs(h.Data[0]-1) > 1e-12 {
		t.Fatalf("H[0] = %v, want 1", h.Data[0])
	}
}

func TestPropagateEnergyConservation(t *testing.T) {
	// |H| = 1 implies propagation conserves total intensity.
	rng := rand.New(rand.NewSource(1))
	n := 32
	psi := grid.NewComplex2DSize(n, n)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	before := psi.Norm2()
	h := FresnelPropagator(n, 10, 2.508, 125)
	plan := fft.NewPlan2D(n, n)
	Propagate(psi, h, plan)
	after := psi.Norm2()
	if math.Abs(after-before) > 1e-9*before {
		t.Fatalf("propagation changed energy: %g -> %g", before, after)
	}
}

func TestPropagateAdjointIsInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 16
	psi := grid.NewComplex2DSize(n, n)
	for i := range psi.Data {
		psi.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := psi.Clone()
	h := FresnelPropagator(n, 10, 2.508, 125)
	plan := fft.NewPlan2D(n, n)
	Propagate(psi, h, plan)
	PropagateAdjoint(psi, h, plan)
	if psi.MaxDiff(orig) > 1e-10 {
		t.Fatalf("adjoint did not invert propagation: %g", psi.MaxDiff(orig))
	}
}

func TestPropagateAdjointInnerProduct(t *testing.T) {
	// <P a, b> == <a, P^H b> — the defining adjoint property.
	rng := rand.New(rand.NewSource(3))
	n := 16
	newRand := func() *grid.Complex2D {
		a := grid.NewComplex2DSize(n, n)
		for i := range a.Data {
			a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		return a
	}
	a, b := newRand(), newRand()
	h := FresnelPropagator(n, 10, 2.508, 125)
	plan := fft.NewPlan2D(n, n)

	pa := a.Clone()
	Propagate(pa, h, plan)
	phb := b.Clone()
	PropagateAdjoint(phb, h, plan)

	dot := func(u, v *grid.Complex2D) complex128 {
		var s complex128
		for i := range u.Data {
			s += u.Data[i] * cmplx.Conj(v.Data[i])
		}
		return s
	}
	lhs := dot(pa, b)
	rhs := dot(a, phb)
	if cmplx.Abs(lhs-rhs) > 1e-9*(1+cmplx.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestZeroDistancePropagatorIsIdentity(t *testing.T) {
	h := FresnelPropagator(8, 10, 2.508, 0)
	for _, v := range h.Data {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatal("dz=0 propagator must be identity")
		}
	}
}

func TestProbeApertureCutoff(t *testing.T) {
	// The probe spectrum must vanish outside the aperture angle.
	o := PaperOptics()
	n := 64
	p := o.Probe(n)
	fft.Unshift(p) // undo real-space centering
	plan := fft.NewPlan2D(n, n)
	plan.Transform(p, fft.Forward)
	lambda := o.Wavelength()
	dk := 1.0 / (float64(n) * o.PixelSizePM)
	kMax := (o.ApertureMrad / 1000) / lambda
	for y := 0; y < n; y++ {
		ky := float64(fft.FreqIndex(y, n)) * dk
		for x := 0; x < n; x++ {
			kx := float64(fft.FreqIndex(x, n)) * dk
			if kx*kx+ky*ky > kMax*kMax*1.0001 {
				if cmplx.Abs(p.At(x, y)) > 1e-9 {
					t.Fatalf("spectrum leak outside aperture at (%d,%d): %g",
						x, y, cmplx.Abs(p.At(x, y)))
				}
			}
		}
	}
}

func TestSphericalAberrationChangesProbe(t *testing.T) {
	clean := PaperOptics()
	aberr := PaperOptics()
	aberr.SphericalCsPM = 1e9 // 1 mm Cs, a typical uncorrected value
	p1 := clean.Probe(64)
	p2 := aberr.Probe(64)
	if p1.MaxDiff(p2) < 1e-6 {
		t.Fatal("spherical aberration had no effect on the probe")
	}
	// Aberration redistributes phase, not energy: both stay normalized.
	if math.Abs(p2.Norm2()-1) > 1e-9 {
		t.Fatalf("aberrated probe norm %g", p2.Norm2())
	}
}
