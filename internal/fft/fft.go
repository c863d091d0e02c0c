// Package fft implements complex discrete Fourier transforms in pure Go.
//
// Every transform runs on one kernel: a self-sorting (Stockham)
// mixed-radix FFT over radices 8, 4, 2, 3 and 5 with per-stage contiguous
// twiddle tables (the factor-into-small-butterflies design of Frigo &
// Johnson, "The Design and Implementation of FFTW3", Proc. IEEE 2005).
// Stockham ping-pongs between the data and one workspace buffer, so
// there is no bit-reversal pass. Lengths whose only prime factors are
// 2, 3 and 5 (16, 24, 32, 48, ...) run on the kernel directly; any other
// length (primes, 7, 14, ...) uses Bluestein's chirp-z algorithm, whose
// padded power-of-2 convolution runs on the same kernel.
//
// The kernel transforms v interleaved vectors at once: element i of
// vector c lives at x[i*v+c], so every butterfly works on v contiguous
// values. A 1-D transform is the case v = 1; the column pass of a 2-D
// transform is the case v = width, which makes its inner loops run over
// whole rows instead of gathering one column at a time.
//
// Conventions: Forward computes X[k] = sum_n x[n] exp(-2*pi*i*n*k/N) with
// no normalization; Inverse applies the +i kernel and divides by N, so
// Inverse(Forward(x)) == x. These match the conventions assumed by the
// multislice forward model and its adjoint.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Direction selects the transform kernel sign.
type Direction int

const (
	// Forward uses the exp(-i...) kernel, no scaling.
	Forward Direction = iota
	// Inverse uses the exp(+i...) kernel and scales by 1/N.
	Inverse
)

// Plan holds the precomputed factorization and twiddle factors for
// transforms of a fixed length. Plans are read-only once built and safe
// for concurrent use; all per-call workspace comes from a Scratch.
type Plan struct {
	n      int
	invN   float64 // 1/n
	stages []stage // Stockham factorization; empty for Bluestein lengths

	// Bluestein state (lengths with a prime factor above 5).
	m     int             // padded power-of-2 length >= 2n-1
	chirp [2][]complex128 // per direction: exp(∓i*pi*k^2/n), length n
	bft   [2][]complex128 // per direction: FFT of the conjugate chirp / m, length m
	sub   *Plan           // power-of-2 plan of length m; nil for smooth lengths
}

// stage is one radix-r pass of the Stockham kernel. With L the
// sub-transform length still to split (n for the first stage) and
// span = L/r, it reads x[u + S*(p + j*span)] and writes
// y[u + S*(r*p + k)] for p < span, j, k < r and u < S, where S is the
// product of the earlier radices times the vector count.
//
// The butterflies are forward r-point DFTs. The inverse DFT of
// (a_0, a_1, ..., a_{r-1}) is the forward DFT of (a_0, a_{r-1}, ..., a_1),
// so the inverse direction reads the input blocks in that order (in)
// and uses the conjugate twiddles.
type stage struct {
	radix  int
	span   int             // L / radix
	stride int             // product of the earlier radices
	in     [2][8]int       // per direction: block offset of input j, j*span or (r-j)%r*span
	tw     [2][]complex128 // per direction: tw[p*(radix-1)+k-1] = exp(∓2*pi*i*p*k/L)
}

var (
	planCacheMu sync.Mutex
	planCache   = map[int]*Plan{}
)

// NewPlan returns a (possibly cached) plan for length n transforms.
// It panics if n <= 0.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	planCacheMu.Lock()
	if p, ok := planCache[n]; ok {
		planCacheMu.Unlock()
		return p
	}
	planCacheMu.Unlock()
	// Build outside the lock: Bluestein plans recursively need a
	// power-of-2 sub-plan, and plan construction is idempotent, so a
	// rare duplicate build is harmless.
	p := buildPlan(n)
	planCacheMu.Lock()
	defer planCacheMu.Unlock()
	if existing, ok := planCache[n]; ok {
		return existing
	}
	planCache[n] = p
	return p
}

func buildPlan(n int) *Plan {
	p := &Plan{n: n, invN: 1 / float64(n)}
	if radices, ok := factor(n); ok {
		stride := 1
		for _, r := range radices {
			l := n / stride
			st := stage{radix: r, span: l / r, stride: stride}
			for j := 0; j < r; j++ {
				st.in[Forward][j] = j * st.span
				st.in[Inverse][j] = (r - j) % r * st.span
			}
			for q := 0; q < st.span; q++ {
				for k := 1; k < r; k++ {
					w := unitRoot(q*k, l)
					st.tw[Forward] = append(st.tw[Forward], w)
					st.tw[Inverse] = append(st.tw[Inverse], conj(w))
				}
			}
			p.stages = append(p.stages, st)
			stride *= r
		}
		return p
	}
	// Bluestein: convolve with a chirp via a padded power-of-2 FFT.
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = NewPlan(m)
	p.chirp[Forward] = make([]complex128, n)
	p.chirp[Inverse] = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k mod 2n keeps the angle argument small for large n.
		w := unitRoot(int(int64(k)*int64(k)%int64(2*n)), 2*n)
		p.chirp[Forward][k] = w
		p.chirp[Inverse][k] = conj(w)
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = p.chirp[Inverse][k]
		if k > 0 {
			b[m-k] = b[k]
		}
	}
	p.sub.run(b, make([]complex128, m), 1, Forward)
	// The padded chirp is even (b[m-k] == b[k]), so the FFT of its
	// conjugate, the inverse direction's kernel, is the conjugate of its
	// FFT. Folding the 1/m of the inner inverse FFT in here is exact: m
	// is a power of 2.
	invM := 1 / float64(m)
	p.bft[Forward] = make([]complex128, m)
	p.bft[Inverse] = make([]complex128, m)
	for i, v := range b {
		p.bft[Forward][i] = rmul(invM, v)
		p.bft[Inverse][i] = rmul(invM, conj(v))
	}
	return p
}

// factor splits n into the kernel's radices: the power of 2 into 8s and
// 4s (2^4 as 4*4 rather than 8*2, so a 2 only remains when n = 2 mod 4),
// then 3s and 5s. It reports false when n has another prime factor.
func factor(n int) ([]int, bool) {
	var radices []int
	k := bits.TrailingZeros(uint(n))
	n >>= k
	for ; k >= 3 && k != 4; k -= 3 {
		radices = append(radices, 8)
	}
	for ; k >= 2; k -= 2 {
		radices = append(radices, 4)
	}
	if k == 1 {
		radices = append(radices, 2)
	}
	for _, r := range []int{3, 5} {
		for n%r == 0 {
			radices = append(radices, r)
			n /= r
		}
	}
	return radices, n == 1
}

// unitRoot returns exp(-2*pi*i*j/n) for j >= 0. The angle is reduced to
// the first octant before calling Sincos, so roots that are symmetric
// images of each other (and the quarter turns 1, -i, -1, i) come out
// exactly symmetric.
func unitRoot(j, n int) complex128 {
	a := 4 * (j % n) // angle in quarter turns is a/n
	quad, r := a/n, a%n
	var c, s float64
	if 2*r <= n {
		s, c = math.Sincos(math.Pi / 2 * float64(r) / float64(n))
	} else {
		c, s = math.Sincos(math.Pi / 2 * float64(n-r) / float64(n))
	}
	z := complex(c, -s)
	switch quad {
	case 1:
		z = mulNegI(z)
	case 2:
		z = -z
	case 3:
		z = -mulNegI(z)
	}
	return z
}

// Len returns the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// scratchPool backs Transform: each call borrows an arena, so the pooled
// and the arena paths run the same code.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// Transform applies the transform in place to x, which must have length
// Len(). dir selects forward or inverse. Workspace is borrowed from an
// internal pool; use TransformScratch with a per-worker Scratch for a
// guaranteed allocation-free hot path.
func (p *Plan) Transform(x []complex128, dir Direction) {
	s := scratchPool.Get().(*Scratch)
	p.TransformScratch(x, dir, s)
	scratchPool.Put(s)
}

// TransformScratch is Transform with an explicit workspace arena. All
// scratch comes from (and stays in) the arena, so steady-state calls
// perform zero heap allocations. The arena must not be shared across
// goroutines.
func (p *Plan) TransformScratch(x []complex128, dir Direction, s *Scratch) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: length mismatch: plan %d, data %d", p.n, len(x)))
	}
	p.transform(x, 1, dir, s)
	if dir == Inverse {
		scale(x, p.invN)
	}
}

// transform runs the unscaled transform of the v interleaved vectors in
// x (len(x) == n*v) with workspace from s.
func (p *Plan) transform(x []complex128, v int, dir Direction, s *Scratch) {
	if p.sub == nil {
		p.run(x, s.workBuf(len(x)), v, dir)
		return
	}
	p.bluestein(x, v, dir, s.convBuf(p.m*v), s.workBuf(p.m*v))
}

// workLen and convLen report the Scratch sizes transform needs for v
// interleaved vectors.
func (p *Plan) workLen(v int) int {
	if p.sub == nil {
		return p.n * v
	}
	return p.m * v
}

func (p *Plan) convLen(v int) int { return p.m * v }

// run is the Stockham kernel: the unscaled transform of the v
// interleaved vectors in x, with work (at least len(x) long) as the
// ping-pong buffer. Every stage but the last reads one buffer and
// writes the other; the last stage has no twiddles and reads and writes
// the same index set, so it lands the result in x in place or from
// work, and the output never needs a copy back.
func (p *Plan) run(x, work []complex128, v int, dir Direction) {
	work = work[:len(x)]
	src, dst := x, work
	last := len(p.stages) - 1
	for i := range p.stages {
		st := &p.stages[i]
		if i == last {
			dst = x
		}
		s := st.stride * v
		switch st.radix {
		case 8:
			radix8(st, src, dst, s, dir)
		case 4:
			radix4(st, src, dst, s, dir)
		case 2:
			radix2(st, src, dst, s, dir)
		case 3:
			radix3(st, src, dst, s, dir)
		case 5:
			radix5(st, src, dst, s, dir)
		}
		src, dst = dst, src
	}
}

// bluestein evaluates an arbitrary-length DFT of v interleaved vectors
// as a circular convolution of length m, using a (m*v values) and work
// (the kernel's ping-pong buffer, m*v values).
func (p *Plan) bluestein(x []complex128, v int, dir Direction, a, work []complex128) {
	n, m := p.n, p.m
	chirp := p.chirp[dir]
	for k := 0; k < n; k++ {
		ch := chirp[k]
		xs, as := x[k*v:(k+1)*v], a[k*v:(k+1)*v]
		for c := range xs {
			as[c] = xs[c] * ch
		}
	}
	clear(a[n*v:])
	p.sub.run(a, work, v, Forward)
	b := p.bft[dir]
	for i := 0; i < m; i++ {
		bi := b[i]
		as := a[i*v : (i+1)*v]
		for c := range as {
			as[c] *= bi
		}
	}
	p.sub.run(a, work, v, Inverse)
	for k := 0; k < n; k++ {
		ch := chirp[k]
		xs, as := x[k*v:(k+1)*v], a[k*v:(k+1)*v]
		for c := range xs {
			xs[c] = as[c] * ch
		}
	}
}

// The radix passes below run one stage each; s is the stage's stride
// in values (stride times the vector count). The p = 0 butterflies have
// unit twiddles and skip the multiply. Every pass reads all inputs of a
// butterfly before writing its outputs, so the last stage (span 1) can
// run in place.

func radix2(st *stage, x, y []complex128, s int, dir Direction) {
	span, tw := st.span, st.tw[dir]
	for p := 0; p < span; p++ {
		x0, x1 := x[s*p:][:s], x[s*(p+span):][:s]
		y0, y1 := y[2*s*p:][:s], y[2*s*p+s:][:s]
		if p == 0 {
			for u := range s {
				y0[u], y1[u] = x0[u]+x1[u], x0[u]-x1[u]
			}
			continue
		}
		w1 := tw[p]
		for u := range s {
			y0[u], y1[u] = x0[u]+x1[u], (x0[u]-x1[u])*w1
		}
	}
}

func radix4(st *stage, x, y []complex128, s int, dir Direction) {
	span, tw, in := st.span, st.tw[dir], &st.in[dir]
	if s == 1 {
		// First stage of a 1-D transform: one butterfly per p.
		for p := 0; p < span; p++ {
			b0, b1, b2, b3 := dft4(x[p], x[p+in[1]], x[p+in[2]], x[p+in[3]])
			w, o := (*[3]complex128)(tw[3*p:]), (*[4]complex128)(y[4*p:])
			o[0], o[1], o[2], o[3] = b0, b1*w[0], b2*w[1], b3*w[2]
		}
		return
	}
	for p := 0; p < span; p++ {
		x0, x1 := x[s*p:][:s], x[s*(p+in[1]):][:s]
		x2, x3 := x[s*(p+in[2]):][:s], x[s*(p+in[3]):][:s]
		o := 4 * s * p
		y0, y1, y2, y3 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s]
		if p == 0 {
			for u := range s {
				y0[u], y1[u], y2[u], y3[u] = dft4(x0[u], x1[u], x2[u], x3[u])
			}
			continue
		}
		w1, w2, w3 := tw[3*p], tw[3*p+1], tw[3*p+2]
		for u := range s {
			b0, b1, b2, b3 := dft4(x0[u], x1[u], x2[u], x3[u])
			y0[u], y1[u], y2[u], y3[u] = b0, b1*w1, b2*w2, b3*w3
		}
	}
}

// radix8 splits each 8-point DFT into two 4-point DFTs of the even and
// odd inputs joined by the eighth roots of unity.
func radix8(st *stage, x, y []complex128, s int, dir Direction) {
	span, tw, in := st.span, st.tw[dir], &st.in[dir]
	if s == 1 {
		// First stage of a 1-D transform: one butterfly per p.
		for p := 0; p < span; p++ {
			e0, e1, e2, e3 := dft4(x[p], x[p+in[2]], x[p+in[4]], x[p+in[6]])
			o0, o1, o2, o3 := dft4(x[p+in[1]], x[p+in[3]], x[p+in[5]], x[p+in[7]])
			o1, o2, o3 = mulW8(o1), mulNegI(o2), mulW83(o3)
			w, o := (*[7]complex128)(tw[7*p:]), (*[8]complex128)(y[8*p:])
			o[0], o[4] = e0+o0, (e0-o0)*w[3]
			o[1], o[5] = (e1+o1)*w[0], (e1-o1)*w[4]
			o[2], o[6] = (e2+o2)*w[1], (e2-o2)*w[5]
			o[3], o[7] = (e3+o3)*w[2], (e3-o3)*w[6]
		}
		return
	}
	for p := 0; p < span; p++ {
		x0, x1 := x[s*p:][:s], x[s*(p+in[1]):][:s]
		x2, x3 := x[s*(p+in[2]):][:s], x[s*(p+in[3]):][:s]
		x4, x5 := x[s*(p+in[4]):][:s], x[s*(p+in[5]):][:s]
		x6, x7 := x[s*(p+in[6]):][:s], x[s*(p+in[7]):][:s]
		o := 8 * s * p
		y0, y1, y2, y3 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s], y[o+3*s:][:s]
		y4, y5, y6, y7 := y[o+4*s:][:s], y[o+5*s:][:s], y[o+6*s:][:s], y[o+7*s:][:s]
		if p == 0 {
			for u := range s {
				e0, e1, e2, e3 := dft4(x0[u], x2[u], x4[u], x6[u])
				o0, o1, o2, o3 := dft4(x1[u], x3[u], x5[u], x7[u])
				o1, o2, o3 = mulW8(o1), mulNegI(o2), mulW83(o3)
				y0[u], y4[u] = e0+o0, e0-o0
				y1[u], y5[u] = e1+o1, e1-o1
				y2[u], y6[u] = e2+o2, e2-o2
				y3[u], y7[u] = e3+o3, e3-o3
			}
			continue
		}
		w := (*[7]complex128)(tw[7*p:])
		for u := range s {
			e0, e1, e2, e3 := dft4(x0[u], x2[u], x4[u], x6[u])
			o0, o1, o2, o3 := dft4(x1[u], x3[u], x5[u], x7[u])
			o1, o2, o3 = mulW8(o1), mulNegI(o2), mulW83(o3)
			y0[u], y4[u] = e0+o0, (e0-o0)*w[3]
			y1[u], y5[u] = (e1+o1)*w[0], (e1-o1)*w[4]
			y2[u], y6[u] = (e2+o2)*w[1], (e2-o2)*w[5]
			y3[u], y7[u] = (e3+o3)*w[2], (e3-o3)*w[6]
		}
	}
}

func radix3(st *stage, x, y []complex128, s int, dir Direction) {
	span, tw, in := st.span, st.tw[dir], &st.in[dir]
	for p := 0; p < span; p++ {
		x0, x1, x2 := x[s*p:][:s], x[s*(p+in[1]):][:s], x[s*(p+in[2]):][:s]
		o := 3 * s * p
		y0, y1, y2 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s]
		if p == 0 {
			for u := range s {
				y0[u], y1[u], y2[u] = dft3(x0[u], x1[u], x2[u])
			}
			continue
		}
		w1, w2 := tw[2*p], tw[2*p+1]
		for u := range s {
			b0, b1, b2 := dft3(x0[u], x1[u], x2[u])
			y0[u], y1[u], y2[u] = b0, b1*w1, b2*w2
		}
	}
}

func radix5(st *stage, x, y []complex128, s int, dir Direction) {
	span, tw, in := st.span, st.tw[dir], &st.in[dir]
	for p := 0; p < span; p++ {
		x0, x1 := x[s*p:][:s], x[s*(p+in[1]):][:s]
		x2, x3 := x[s*(p+in[2]):][:s], x[s*(p+in[3]):][:s]
		x4 := x[s*(p+in[4]):][:s]
		o := 5 * s * p
		y0, y1, y2 := y[o:][:s], y[o+s:][:s], y[o+2*s:][:s]
		y3, y4 := y[o+3*s:][:s], y[o+4*s:][:s]
		if p == 0 {
			for u := range s {
				y0[u], y1[u], y2[u], y3[u], y4[u] = dft5(x0[u], x1[u], x2[u], x3[u], x4[u])
			}
			continue
		}
		w := (*[4]complex128)(tw[4*p:])
		for u := range s {
			b0, b1, b2, b3, b4 := dft5(x0[u], x1[u], x2[u], x3[u], x4[u])
			y0[u], y1[u], y2[u], y3[u], y4[u] = b0, b1*w[0], b2*w[1], b3*w[2], b4*w[3]
		}
	}
}

// dft4, dft3 and dft5 are the forward 4-, 3- and 5-point DFTs.

func dft4(a0, a1, a2, a3 complex128) (b0, b1, b2, b3 complex128) {
	t0, t1 := a0+a2, a0-a2
	t2, t3 := a1+a3, mulNegI(a1-a3)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

func dft3(a0, a1, a2 complex128) (b0, b1, b2 complex128) {
	const sin3 = 0.86602540378443864676 // sin(2*pi/3)
	t := a1 + a2
	mid := a0 - rmul(0.5, t)
	d := mulNegI(rmul(sin3, a1-a2))
	return a0 + t, mid + d, mid - d
}

func dft5(a0, a1, a2, a3, a4 complex128) (b0, b1, b2, b3, b4 complex128) {
	const (
		c1 = 0.30901699437494742410  // cos(2*pi/5)
		c2 = -0.80901699437494742410 // cos(4*pi/5)
		s1 = 0.95105651629515357212  // sin(2*pi/5)
		s2 = 0.58778525229247312917  // sin(4*pi/5)
	)
	t1, t2 := a1+a4, a2+a3
	t3, t4 := a1-a4, a2-a3
	m1 := a0 + rmul(c1, t1) + rmul(c2, t2)
	m2 := a0 + rmul(c2, t1) + rmul(c1, t2)
	n1 := mulNegI(rmul(s1, t3) + rmul(s2, t4))
	n2 := mulNegI(rmul(s2, t3) - rmul(s1, t4))
	return a0 + t1 + t2, m1 + n1, m2 + n2, m2 - n2, m1 - n1
}

// mulW8 and mulW83 return z*exp(-i*pi/4) and z*exp(-3i*pi/4).
func mulW8(z complex128) complex128 {
	return complex((real(z)+imag(z))*math.Sqrt2/2, (imag(z)-real(z))*math.Sqrt2/2)
}

func mulW83(z complex128) complex128 {
	return complex((imag(z)-real(z))*math.Sqrt2/2, -(real(z)+imag(z))*math.Sqrt2/2)
}

// mulNegI returns z * -i, exactly.
func mulNegI(z complex128) complex128 { return complex(imag(z), -real(z)) }

// rmul returns f * z for real f with two multiplies instead of a
// complex product's four.
func rmul(f float64, z complex128) complex128 { return complex(f*real(z), f*imag(z)) }

func conj(z complex128) complex128 { return complex(real(z), -imag(z)) }

func scale(x []complex128, f float64) {
	for i := range x {
		x[i] = complex(real(x[i])*f, imag(x[i])*f)
	}
}
