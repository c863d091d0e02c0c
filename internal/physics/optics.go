// Package physics models the electron-optical components of a
// ptychography experiment: relativistic electron wavelength, the
// condenser-aperture probe with defocus, Fresnel free-space propagation
// between object slices, and the far-field detector mapping.
//
// Length units are picometers (pm) throughout, matching the paper's
// 10x10x125 pm^3 voxels; energies are electron-volts.
package physics

import (
	"fmt"
	"math"
	"math/cmplx"

	"ptychopath/internal/fft"
	"ptychopath/internal/grid"
)

// Physical constants (CODATA, in units convenient for pm/eV work).
const (
	// hc in eV*pm: h*c = 1239.8419... eV*nm = 1.2398e6 eV*pm.
	hcEVpm = 1.23984193e6
	// Electron rest energy in eV.
	electronRestEV = 510998.95
)

// ElectronWavelength returns the relativistic de Broglie wavelength in
// picometers for an accelerating voltage in electron-volts.
// At 200 keV this is approximately 2.508 pm.
func ElectronWavelength(energyEV float64) float64 {
	if energyEV <= 0 {
		panic(fmt.Sprintf("physics: non-positive beam energy %g", energyEV))
	}
	// lambda = hc / sqrt(E*(E + 2*m0c^2))
	return hcEVpm / math.Sqrt(energyEV*(energyEV+2*electronRestEV))
}

// Optics bundles the microscope parameters used by the paper's
// experiments: 200 keV beam, 25 nm defocus, 30 mrad probe-forming
// aperture.
type Optics struct {
	EnergyEV      float64 // beam energy, eV
	DefocusPM     float64 // defocus, pm (paper: 25 nm = 25000 pm)
	ApertureMrad  float64 // probe-forming aperture semi-angle, mrad
	PixelSizePM   float64 // transverse pixel size, pm (paper: 10 pm)
	SliceThickPM  float64 // slice thickness, pm (paper: 125 pm)
	SphericalCsPM float64 // spherical aberration Cs, pm (0 = aberration-free)
}

// PaperOptics returns the acquisition parameters from the paper's
// experiment section (Sec. VI-A).
func PaperOptics() Optics {
	return Optics{
		EnergyEV:     200e3,
		DefocusPM:    25e3,
		ApertureMrad: 30,
		PixelSizePM:  10,
		SliceThickPM: 125,
	}
}

// Wavelength returns the beam wavelength in pm.
func (o Optics) Wavelength() float64 { return ElectronWavelength(o.EnergyEV) }

// Validate reports a descriptive error for physically meaningless
// parameter combinations.
func (o Optics) Validate() error {
	switch {
	case o.EnergyEV <= 0:
		return fmt.Errorf("physics: beam energy must be positive, got %g eV", o.EnergyEV)
	case o.ApertureMrad <= 0:
		return fmt.Errorf("physics: aperture must be positive, got %g mrad", o.ApertureMrad)
	case o.PixelSizePM <= 0:
		return fmt.Errorf("physics: pixel size must be positive, got %g pm", o.PixelSizePM)
	case o.SliceThickPM <= 0:
		return fmt.Errorf("physics: slice thickness must be positive, got %g pm", o.SliceThickPM)
	}
	return nil
}

// Probe synthesizes an n x n complex probe wavefunction: a hard
// circular aperture of the configured semi-angle with defocus (and
// optional spherical-aberration) phase, inverse-transformed to real
// space and normalized to unit total intensity. The probe is centered in
// the array (fftshifted to real-space center).
func (o Optics) Probe(n int) *grid.Complex2D {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	lambda := o.Wavelength()
	// Reciprocal-space pixel in 1/pm.
	dk := 1.0 / (float64(n) * o.PixelSizePM)
	kMax := (o.ApertureMrad / 1000.0) / lambda // aperture radius in 1/pm
	a := grid.NewComplex2DSize(n, n)
	for y := 0; y < n; y++ {
		ky := float64(fft.FreqIndex(y, n)) * dk
		for x := 0; x < n; x++ {
			kx := float64(fft.FreqIndex(x, n)) * dk
			k2 := kx*kx + ky*ky
			if k2 > kMax*kMax {
				continue
			}
			// Aberration phase chi(k) = pi*lambda*defocus*k^2
			//                         + (pi/2)*Cs*lambda^3*k^4.
			chi := math.Pi*lambda*o.DefocusPM*k2 +
				0.5*math.Pi*o.SphericalCsPM*lambda*lambda*lambda*k2*k2
			a.Data[y*n+x] = cmplx.Exp(complex(0, -chi))
		}
	}
	plan := fft.NewPlan2D(n, n)
	plan.Transform(a, fft.Inverse)
	fft.Shift(a) // center the probe in real space
	// Normalize total intensity to 1.
	norm := math.Sqrt(a.Norm2())
	if norm > 0 {
		a.Scale(complex(1/norm, 0))
	}
	return a
}

// ProbeRadiusPM estimates the real-space probe radius in pm: the radius
// of the disc containing the given energy fraction (e.g. 0.95) of the
// probe intensity. Used to size tile halos.
func ProbeRadiusPM(p *grid.Complex2D, pixelSizePM, energyFraction float64) float64 {
	n := p.W()
	cx, cy := float64(n)/2, float64(n)/2
	type rw struct {
		r float64
		w float64
	}
	samples := make([]rw, 0, len(p.Data))
	var total float64
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := p.Data[y*n+x]
			w := real(v)*real(v) + imag(v)*imag(v)
			if w == 0 {
				continue
			}
			dx, dy := float64(x)-cx, float64(y)-cy
			samples = append(samples, rw{r: math.Hypot(dx, dy), w: w})
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	// Sort by radius (insertion into radial histogram is enough here).
	const bins = 4096
	maxR := float64(n) / 2 * math.Sqrt2
	hist := make([]float64, bins)
	for _, s := range samples {
		b := int(s.r / maxR * float64(bins-1))
		hist[b] += s.w
	}
	var acc float64
	for b, w := range hist {
		acc += w
		if acc >= energyFraction*total {
			return float64(b) / float64(bins-1) * maxR * pixelSizePM
		}
	}
	return maxR * pixelSizePM
}

// FresnelPropagator returns the reciprocal-space transfer function
// H(k) = exp(-i*pi*lambda*dz*k^2) for free-space propagation over
// distance dz (pm) on an n x n grid with the given pixel size. The
// kernel is laid out in standard FFT index order (DC at index 0).
func FresnelPropagator(n int, pixelSizePM, lambdaPM, dzPM float64) *grid.Complex2D {
	dk := 1.0 / (float64(n) * pixelSizePM)
	h := grid.NewComplex2DSize(n, n)
	for y := 0; y < n; y++ {
		ky := float64(fft.FreqIndex(y, n)) * dk
		for x := 0; x < n; x++ {
			kx := float64(fft.FreqIndex(x, n)) * dk
			k2 := kx*kx + ky*ky
			h.Data[y*n+x] = cmplx.Exp(complex(0, -math.Pi*lambdaPM*dzPM*k2))
		}
	}
	return h
}

// Propagate applies Fresnel propagation in place: psi <- F^-1(H * F psi).
// The plan must match psi's dimensions; h must be the matching kernel.
func Propagate(psi *grid.Complex2D, h *grid.Complex2D, plan *fft.Plan2D) {
	plan.Transform(psi, fft.Forward)
	for i := range psi.Data {
		psi.Data[i] *= h.Data[i]
	}
	plan.Transform(psi, fft.Inverse)
}

// PropagateAdjoint applies the adjoint of Propagate (conjugate kernel):
// psi <- F^-1(conj(H) * F psi). Because |H| = 1 this is also the inverse
// propagation, used by the gradient backward pass.
func PropagateAdjoint(psi *grid.Complex2D, h *grid.Complex2D, plan *fft.Plan2D) {
	plan.Transform(psi, fft.Forward)
	for i := range psi.Data {
		psi.Data[i] *= cmplx.Conj(h.Data[i])
	}
	plan.Transform(psi, fft.Inverse)
}
