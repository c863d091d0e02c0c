package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"ptychopath/internal/grid"
)

func randArray(rng *rand.Rand, w, h int) *grid.Complex2D {
	a := grid.NewComplex2DSize(w, h)
	for i := range a.Data {
		a.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return a
}

// naive2D computes the 2-D DFT directly, with both angle terms reduced
// (kx*x mod w, ky*y mod h) like naiveDFT's. The inverse includes the
// 1/(w*h) scaling.
func naive2D(a *grid.Complex2D, dir Direction) []complex128 {
	w, h := a.W(), a.H()
	out := make([]complex128, w*h)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for ky := 0; ky < h; ky++ {
		for kx := 0; kx < w; kx++ {
			var s complex128
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					turns := float64(kx*x%w)/float64(w) + float64(ky*y%h)/float64(h)
					sin, cos := math.Sincos(sign * 2 * math.Pi * turns)
					s += a.Data[y*w+x] * complex(cos, sin)
				}
			}
			out[ky*w+kx] = s
		}
	}
	if dir == Inverse {
		for i := range out {
			out[i] /= complex(float64(w*h), 0)
		}
	}
	return out
}

// TestPlan2DMatchesNaive holds 2-D transforms, both directions, to the
// kernel's stated bound 1e-14*log2(w*h) (see accuracyBound) on square
// and non-square mixes of smooth and Bluestein dimensions.
func TestPlan2DMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][2]int{{4, 4}, {8, 4}, {3, 5}, {6, 8}, {16, 16}, {6, 10}, {16, 24}, {24, 16},
		{24, 24}, {32, 32}, {15, 32}, {48, 20}, {7, 12}, {12, 13}, {17, 31}} {
		w, h := dims[0], dims[1]
		a := randArray(rng, w, h)
		for _, dir := range []Direction{Forward, Inverse} {
			want := naive2D(a, dir)
			got := a.Clone()
			NewPlan2D(w, h).Transform(got, dir)
			scale := 1.0
			if dir == Inverse {
				scale = float64(w * h)
			}
			if e := relErr(got.Data, want, a.Data, scale); e > accuracyBound(w*h) {
				t.Errorf("%dx%d dir=%d: relative error %.3g > bound %.3g", w, h, dir, e, accuracyBound(w*h))
			}
		}
	}
}

func TestPlan2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{8, 8}, {15, 9}, {32, 32}, {64, 64}} {
		w, h := dims[0], dims[1]
		a := randArray(rng, w, h)
		b := a.Clone()
		p := NewPlan2D(w, h)
		p.Transform(b, Forward)
		p.Transform(b, Inverse)
		if a.MaxDiff(b) > 1e-10 {
			t.Errorf("%dx%d: roundtrip error %g", w, h, a.MaxDiff(b))
		}
	}
}

func TestPlan2DOffsetBoundsIgnored(t *testing.T) {
	// Tiles at arbitrary offsets transform identically to origin tiles.
	rng := rand.New(rand.NewSource(4))
	a := randArray(rng, 16, 16)
	b := grid.NewComplex2D(grid.NewRect(100, 200, 116, 216))
	copy(b.Data, a.Data)
	p := NewPlan2D(16, 16)
	p.Transform(a, Forward)
	p.Transform(b, Forward)
	for i := range a.Data {
		if cmplx.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatal("offset bounds must not affect transform")
		}
	}
}

func TestPlan2DShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch must panic")
		}
	}()
	NewPlan2D(8, 8).Transform(grid.NewComplex2DSize(8, 9), Forward)
}

func TestShiftUnshiftInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{8, 8}, {7, 7}, {9, 6}, {5, 8}} {
		a := randArray(rng, dims[0], dims[1])
		b := a.Clone()
		Shift(b)
		Unshift(b)
		if a.MaxDiff(b) > 0 {
			t.Errorf("%v: Unshift(Shift(x)) != x", dims)
		}
	}
}

func TestShiftMovesDCToCenter(t *testing.T) {
	a := grid.NewComplex2DSize(8, 8)
	a.Set(0, 0, 1)
	Shift(a)
	if a.At(4, 4) != 1 {
		t.Fatal("Shift must move (0,0) to (w/2, h/2)")
	}
	var nonzero int
	for _, v := range a.Data {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatal("Shift must be a permutation")
	}
}

func TestShiftOddDims(t *testing.T) {
	a := grid.NewComplex2DSize(5, 5)
	a.Set(0, 0, 1)
	Shift(a)
	if a.At(2, 2) != 1 {
		t.Fatalf("odd-dim Shift put DC at wrong place")
	}
}

func TestPlan2DSeparability(t *testing.T) {
	// FFT2(outer(u, v)) == outer(FFT(u), FFT(v)).
	rng := rand.New(rand.NewSource(6))
	n := 16
	u := randVec(rng, n)
	v := randVec(rng, n)
	a := grid.NewComplex2DSize(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			a.Data[y*n+x] = u[x] * v[y]
		}
	}
	NewPlan2D(n, n).Transform(a, Forward)
	fu := append([]complex128(nil), u...)
	fv := append([]complex128(nil), v...)
	p := NewPlan(n)
	p.Transform(fu, Forward)
	p.Transform(fv, Forward)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if cmplx.Abs(a.Data[y*n+x]-fu[x]*fv[y]) > 1e-8 {
				t.Fatal("separability violated")
			}
		}
	}
}

func BenchmarkFFT1D1024(b *testing.B) {
	p := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%3))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Transform(x, Forward)
	}
}

// BenchmarkFFT2D measures one forward plus one inverse 2-D transform
// through a per-worker Scratch — the call pattern of the gradient
// kernel — at the window sizes the reconstruction workloads use (16,
// 24, 32) and at 128.
func BenchmarkFFT2D(b *testing.B) {
	for _, n := range []int{16, 24, 32, 128} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			p := NewPlan2D(n, n)
			a := randArray(rand.New(rand.NewSource(1)), n, n)
			var s Scratch
			s.Warm(p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.TransformScratch(a, Forward, &s)
				p.TransformScratch(a, Inverse, &s)
			}
		})
	}
}
