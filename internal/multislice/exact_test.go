package multislice

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptychopath/internal/fft"
	"ptychopath/internal/grid"
)

// refLossGrad is the per-location kernel as it stood before the
// window-sized rewrite: a separate far-field buffer (fwork) filled by
// copying the exit wave, a single window buffer (twin) that the
// backward pass re-extracts with an unconditional Fill(1), |D| computed
// twice, and the N^2 rescale as a complex multiply. It borrows only the
// engine's read-only probe, propagator and plan; every buffer is its
// own. TestLossGradBitExact holds the engine to it bit for bit.
func refLossGrad(e *Engine, slices []*grid.Complex2D, win grid.Rect, yAmp *grid.Float2D,
	grads []*grid.Complex2D, probeGrad *grid.Complex2D) float64 {
	n := e.n
	var scr fft.Scratch
	fwork := grid.NewComplex2DSize(n, n)
	bwork := grid.NewComplex2DSize(n, n)
	twin := grid.NewComplex2DSize(n, n)
	psi := make([]*grid.Complex2D, len(slices)+1)
	for i := range psi {
		psi[i] = grid.NewComplex2DSize(n, n)
	}
	extract := func(dst, slice *grid.Complex2D) {
		dst.Fill(1)
		inter := win.Intersect(slice.Bounds)
		if inter.Empty() {
			return
		}
		for y := inter.Y0; y < inter.Y1; y++ {
			srcRow := slice.Row(y)
			dy := y - win.Y0
			dx0 := inter.X0 - win.X0
			sx0 := inter.X0 - slice.Bounds.X0
			copy(dst.Data[dy*n+dx0:dy*n+dx0+inter.W()], srcRow[sx0:sx0+inter.W()])
		}
	}

	s := len(slices)
	copy(psi[0].Data, e.probe.Data)
	for i, sl := range slices {
		extract(twin, sl)
		cur, next := psi[i], psi[i+1]
		for j := range cur.Data {
			next.Data[j] = cur.Data[j] * twin.Data[j]
		}
		if e.h != nil && i < s-1 {
			e.plan.TransformScratch(next, fft.Forward, &scr)
			for j := range next.Data {
				next.Data[j] *= e.h.Data[j]
			}
			e.plan.TransformScratch(next, fft.Inverse, &scr)
		}
	}
	copy(fwork.Data, psi[s].Data)
	e.plan.TransformScratch(fwork, fft.Forward, &scr)
	d := fwork

	var f, dMax float64
	for i, v := range d.Data {
		m := cmplx.Abs(v)
		r := yAmp.Data[i] - m
		f += r * r
		dMax = max(dMax, m)
	}
	chi := bwork
	floor := 1e-12 * dMax
	for i, v := range d.Data {
		m := cmplx.Abs(v)
		if m <= floor {
			chi.Data[i] = complex(m-yAmp.Data[i], 0)
			continue
		}
		chi.Data[i] = v * complex((m-yAmp.Data[i])/m, 0)
	}
	e.plan.TransformScratch(chi, fft.Inverse, &scr)
	scale := complex(float64(n*n), 0)
	for i := range chi.Data {
		chi.Data[i] *= scale
	}
	for i := s - 1; i >= 0; i-- {
		if e.h != nil && i < s-1 {
			e.plan.TransformScratch(chi, fft.Forward, &scr)
			for j := range chi.Data {
				chi.Data[j] *= cmplx.Conj(e.h.Data[j])
			}
			e.plan.TransformScratch(chi, fft.Inverse, &scr)
		}
		extract(twin, slices[i])
		g := grads[i]
		inter := win.Intersect(g.Bounds)
		for y := inter.Y0; y < inter.Y1; y++ {
			gRow := g.Row(y)
			wy := y - win.Y0
			for x := inter.X0; x < inter.X1; x++ {
				idx := wy*n + x - win.X0
				gRow[x-g.Bounds.X0] += cmplx.Conj(psi[i].Data[idx]) * chi.Data[idx]
			}
		}
		if i > 0 || probeGrad != nil {
			for j := range chi.Data {
				chi.Data[j] *= cmplx.Conj(twin.Data[j])
			}
		}
	}
	if probeGrad != nil {
		for j := range chi.Data {
			probeGrad.Data[j] += chi.Data[j]
		}
	}
	return f
}

// exactFixture builds a band-limited probe (the inverse FFT of a disk
// aperture, so the far field outside the disk is rounding noise and the
// chi floor is exercised), a unit-modulus Fresnel-like kernel, random
// weak-phase slices on a 3n x 3n object, random starting gradients and
// a random measurement.
func exactFixture(n, nslices int, rng *rand.Rand) (*Engine, []*grid.Complex2D, []*grid.Complex2D, *grid.Float2D) {
	ap := grid.NewComplex2DSize(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			fx, fy := float64((x+n/2)%n-n/2), float64((y+n/2)%n-n/2)
			if fx*fx+fy*fy <= float64(n*n)/16 {
				ap.Set(x, y, cmplx.Rect(1, rng.Float64()))
			}
		}
	}
	fft.NewPlan2D(n, n).Transform(ap, fft.Inverse)
	h := grid.NewComplex2DSize(n, n)
	for i := range h.Data {
		h.Data[i] = cmplx.Rect(1, 2*math.Pi*rng.Float64())
	}
	e := NewEngine(ap, h)
	bounds := grid.RectWH(-n, -n, 3*n, 3*n)
	slices := make([]*grid.Complex2D, nslices)
	grads := make([]*grid.Complex2D, nslices)
	for s := range slices {
		slices[s] = grid.NewComplex2D(bounds)
		grads[s] = grid.NewComplex2D(bounds)
		for i := range slices[s].Data {
			slices[s].Data[i] = cmplx.Rect(1-0.1*rng.Float64(), 0.3*rng.NormFloat64())
			grads[s].Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	y := grid.NewFloat2DSize(n, n)
	for i := range y.Data {
		y.Data[i] = float64(n) * rng.Float64()
	}
	return e, slices, grads, y
}

func cloneStack(a []*grid.Complex2D) []*grid.Complex2D {
	out := make([]*grid.Complex2D, len(a))
	for i, g := range a {
		out[i] = g.Clone()
	}
	return out
}

func sameBits(a, b *grid.Complex2D) (int, bool) {
	for i := range a.Data {
		if math.Float64bits(real(a.Data[i])) != math.Float64bits(real(b.Data[i])) ||
			math.Float64bits(imag(a.Data[i])) != math.Float64bits(imag(b.Data[i])) {
			return i, false
		}
	}
	return 0, true
}

// TestLossGradBitExact holds the window-sized kernel to the pre-change
// kernel bit for bit — loss, every slice gradient and the probe
// gradient — at the 2^4, 2^3·3 and 2^5 window sizes with 1 to 3
// slices. One engine walks interior windows, windows hanging off each
// edge and a window wholly outside the object, in an order that puts
// an interior window after an edge one, so a skipped vacuum fill would
// leave stale padding in the reused window buffers.
func TestLossGradBitExact(t *testing.T) {
	for _, n := range []int{16, 24, 32} {
		for nslices := 1; nslices <= 3; nslices++ {
			t.Run(fmt.Sprintf("n%d-s%d", n, nslices), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*n + nslices)))
				e, slices, grads, y := exactFixture(n, nslices, rng)
				wins := []grid.Rect{
					grid.RectWH(-n/2, -n/3, n, n), // off the top-left corner
					grid.RectWH(n/4, n/3, n, n),   // interior
					grid.RectWH(2*n-3, n/2, n, n), // off the right edge
					grid.RectWH(0, 0, n, n),       // interior, touching nothing
					grid.RectWH(n/5, 2*n+2, n, n), // off the bottom edge
					grid.RectWH(-3*n, -3*n, n, n), // wholly outside: vacuum
					grid.RectWH(-n, -n, n, n),     // flush with the corner
				}
				for k, win := range wins {
					for _, withProbe := range []bool{false, true} {
						gotG, wantG := cloneStack(grads), cloneStack(grads)
						var gotP, wantP *grid.Complex2D
						var got float64
						if withProbe {
							gotP = grid.NewComplex2DSize(n, n)
							gotP.Fill(complex(0.5, -0.25))
							wantP = gotP.Clone()
							got = e.LossGradProbe(slices, win, y, gotG, gotP)
						} else {
							got = e.LossGrad(slices, win, y, gotG)
						}
						want := refLossGrad(e, slices, win, y, wantG, wantP)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("window %d %v probe=%v: loss %v, reference %v", k, win, withProbe, got, want)
						}
						for s := range gotG {
							if i, ok := sameBits(gotG[s], wantG[s]); !ok {
								t.Fatalf("window %d %v probe=%v: slice %d gradient differs at %d: %v vs %v",
									k, win, withProbe, s, i, gotG[s].Data[i], wantG[s].Data[i])
							}
						}
						if withProbe {
							if i, ok := sameBits(gotP, wantP); !ok {
								t.Fatalf("window %d %v: probe gradient differs at %d: %v vs %v",
									k, win, i, gotP.Data[i], wantP.Data[i])
							}
						}
					}
				}
			})
		}
	}
}
