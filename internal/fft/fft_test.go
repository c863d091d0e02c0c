package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n^2) reference implementation. Angles are reduced
// as j*k mod n before Sincos, so the reference itself is accurate to a
// few ulps at every size tested. The inverse includes the 1/n scaling.
func naiveDFT(x []complex128, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			sin, cos := math.Sincos(sign * 2 * math.Pi * float64(j*k%n) / float64(n))
			s += x[j] * complex(cos, sin)
		}
		out[k] = s
	}
	if dir == Inverse {
		for k := range out {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

// relErr returns ||got-want||_inf / ||x||_2, with the inverse direction's
// 1/n undone (scale n) so both directions face the same bound.
func relErr(got, want, x []complex128, scale float64) float64 {
	var norm float64
	for _, v := range x {
		norm += real(v)*real(v) + imag(v)*imag(v)
	}
	return maxErr(got, want) * scale / math.Sqrt(norm)
}

// accuracyBound is the stated error bound of the kernel: relative error
// ||X - X_ref||_inf / ||x||_2 <= 1e-14 * log2(n).
func accuracyBound(n int) float64 { return 1e-14 * math.Log2(float64(n)) }

// Smooth sizes run on the mixed-radix kernel directly; the others run
// through Bluestein (primes, and composites with a factor above 5).
var (
	smoothSizes = []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30, 32, 40, 48, 60, 64, 96, 100, 128}
	otherSizes  = []int{7, 13, 14, 17, 21, 31, 49, 63, 101, 127}
)

func randVec(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	testAccuracy(t, Forward, 1)
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	testAccuracy(t, Inverse, 2)
}

func testAccuracy(t *testing.T, dir Direction, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range append(append([]int(nil), smoothSizes...), otherSizes...) {
		x := randVec(rng, n)
		want := naiveDFT(x, dir)
		got := append([]complex128(nil), x...)
		NewPlan(n).Transform(got, dir)
		scale := 1.0
		if dir == Inverse {
			scale = float64(n)
		}
		if e := relErr(got, want, x, scale); e > accuracyBound(n) {
			t.Errorf("n=%d dir=%d: relative error %.3g > bound %.3g", n, dir, e, accuracyBound(n))
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 5, 16, 48, 64, 121, 256} {
		x := randVec(rng, n)
		y := append([]complex128(nil), x...)
		p := NewPlan(n)
		p.Transform(y, Forward)
		p.Transform(y, Inverse)
		if e := maxErr(x, y); e > 1e-10*float64(n) {
			t.Errorf("n=%d: roundtrip error %g", n, e)
		}
	}
}

func TestParsevalTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 21, 64, 100} {
		x := randVec(rng, n)
		var td float64
		for _, v := range x {
			td += real(v)*real(v) + imag(v)*imag(v)
		}
		y := append([]complex128(nil), x...)
		NewPlan(n).Transform(y, Forward)
		var fd float64
		for _, v := range y {
			fd += real(v)*real(v) + imag(v)*imag(v)
		}
		if math.Abs(fd/float64(n)-td) > 1e-8*td {
			t.Errorf("n=%d: Parseval violated: time %g freq/n %g", n, td, fd/float64(n))
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 1 + rng.Intn(64)
		p := NewPlan(n)
		a, b := randVec(rng, n), randVec(rng, n)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		// FFT(alpha*a + b)
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = alpha*a[i] + b[i]
		}
		p.Transform(lhs, Forward)
		// alpha*FFT(a) + FFT(b)
		fa := append([]complex128(nil), a...)
		fb := append([]complex128(nil), b...)
		p.Transform(fa, Forward)
		p.Transform(fb, Forward)
		for i := range fa {
			fa[i] = alpha*fa[i] + fb[i]
		}
		return maxErr(lhs, fa) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftTheoremProperty(t *testing.T) {
	// A circular shift in time multiplies the spectrum by a phase ramp.
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		n := 2 + rng.Intn(63)
		s := rng.Intn(n)
		p := NewPlan(n)
		x := randVec(rng, n)
		shifted := make([]complex128, n)
		for i := range x {
			shifted[(i+s)%n] = x[i]
		}
		fx := append([]complex128(nil), x...)
		p.Transform(fx, Forward)
		fs := append([]complex128(nil), shifted...)
		p.Transform(fs, Forward)
		for k := 0; k < n; k++ {
			phase := cmplx.Exp(complex(0, -2*math.Pi*float64(k)*float64(s)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a delta at index 0 is all-ones.
	for _, n := range []int{4, 9, 16} {
		x := make([]complex128, n)
		x[0] = 1
		NewPlan(n).Transform(x, Forward)
		for k, v := range x {
			if cmplx.Abs(v-1) > 1e-10 {
				t.Fatalf("n=%d k=%d: delta transform = %v, want 1", n, k, v)
			}
		}
	}
}

func TestConstantSignal(t *testing.T) {
	// FFT of all-ones is n*delta.
	n := 12
	x := make([]complex128, n)
	for i := range x {
		x[i] = 1
	}
	NewPlan(n).Transform(x, Forward)
	if cmplx.Abs(x[0]-complex(float64(n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", x[0], n)
	}
	for k := 1; k < n; k++ {
		if cmplx.Abs(x[k]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", k, x[k])
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	if NewPlan(64) != NewPlan(64) {
		t.Fatal("plans of the same length must be cached")
	}
}

func TestPlanInvalidLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPlan(0) must panic")
		}
	}()
	NewPlan(0)
}

func TestTransformLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	NewPlan(8).Transform(make([]complex128, 7), Forward)
}

func TestPlanConcurrentUse(t *testing.T) {
	// A single plan used from many goroutines must race-cleanly produce
	// correct results (run with -race in CI).
	p := NewPlan(47) // Bluestein length: both Scratch buffers come from the pool
	rng := rand.New(rand.NewSource(7))
	x := randVec(rng, 47)
	want := naiveDFT(x, Forward)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				y := append([]complex128(nil), x...)
				p.Transform(y, Forward)
				if maxErr(y, want) > 1e-8 {
					done <- errMismatch
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = errorString("concurrent transform mismatch")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestFreqIndex(t *testing.T) {
	// Even length.
	got := make([]int, 8)
	for k := range got {
		got[k] = FreqIndex(k, 8)
	}
	want := []int{0, 1, 2, 3, -4, -3, -2, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FreqIndex(%d,8) = %d, want %d", i, got[i], want[i])
		}
	}
	// Odd length.
	got5 := make([]int, 5)
	for k := range got5 {
		got5[k] = FreqIndex(k, 5)
	}
	want5 := []int{0, 1, 2, -2, -1}
	for i := range want5 {
		if got5[i] != want5[i] {
			t.Fatalf("FreqIndex(%d,5) = %d, want %d", i, got5[i], want5[i])
		}
	}
}
