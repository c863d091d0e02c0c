package fft

import (
	"fmt"

	"ptychopath/internal/grid"
)

// Plan2D performs 2-D transforms on w x h complex arrays: a 1-D
// transform of each row, then one pass of the kernel over all columns at
// once (the columns are the w interleaved vectors of the row-major
// array). A Plan2D is read-only and safe for concurrent use.
type Plan2D struct {
	w, h    int
	rowPlan *Plan
	colPlan *Plan
}

// NewPlan2D returns a plan for w x h transforms.
func NewPlan2D(w, h int) *Plan2D {
	return &Plan2D{w: w, h: h, rowPlan: NewPlan(w), colPlan: NewPlan(h)}
}

// W returns the plan width.
func (p *Plan2D) W() int { return p.w }

// H returns the plan height.
func (p *Plan2D) H() int { return p.h }

// Transform applies the 2-D transform in place to a, whose dimensions
// must match the plan. The array's Bounds offset is irrelevant; only the
// shape matters. Workspace is borrowed from an internal pool; hot paths
// that must not allocate should hold a per-worker Scratch and call
// TransformScratch instead.
func (p *Plan2D) Transform(a *grid.Complex2D, dir Direction) {
	s := scratchPool.Get().(*Scratch)
	p.TransformScratch(a, dir, s)
	scratchPool.Put(s)
}

// TransformScratch applies the 2-D transform in place drawing every
// workspace buffer from the per-worker arena s, making steady-state
// calls allocation-free.
func (p *Plan2D) TransformScratch(a *grid.Complex2D, dir Direction, s *Scratch) {
	if a.W() != p.w || a.H() != p.h {
		panic(fmt.Sprintf("fft: plan %dx%d, array %dx%d", p.w, p.h, a.W(), a.H()))
	}
	data := a.Data
	w := p.w
	for y := 0; y < p.h; y++ {
		p.rowPlan.transform(data[y*w:(y+1)*w], 1, dir, s)
	}
	p.colPlan.transform(data, w, dir, s)
	if dir == Inverse {
		scale(data, 1/float64(w*p.h))
	}
}

// Shift applies fftshift in place: quadrants are swapped so the
// zero-frequency component moves to the array center. For odd dimensions
// Shift moves index 0 to floor(n/2); Unshift reverses it exactly.
func Shift(a *grid.Complex2D) { shift(a, false) }

// Unshift applies the inverse of Shift (ifftshift).
func Unshift(a *grid.Complex2D) { shift(a, true) }

func shift(a *grid.Complex2D, inverse bool) {
	w, h := a.W(), a.H()
	dx, dy := w/2, h/2
	if inverse {
		dx, dy = (w+1)/2, (h+1)/2
	}
	out := make([]complex128, len(a.Data))
	for y := 0; y < h; y++ {
		ny := (y + dy) % h
		for x := 0; x < w; x++ {
			nx := (x + dx) % w
			out[ny*w+nx] = a.Data[y*w+x]
		}
	}
	copy(a.Data, out)
}

// FreqIndex returns the signed frequency for index k of an n-point
// transform: 0, 1, ..., n/2-1, -n/2, ..., -1 (the NumPy fftfreq layout
// multiplied by n).
func FreqIndex(k, n int) int {
	if k <= (n-1)/2 {
		return k
	}
	return k - n
}
