package fft

// Scratch is a reusable per-worker arena for FFT workspace: the
// Stockham kernel's ping-pong buffer and, for lengths that need
// Bluestein, the padded convolution buffer. Passing one to
// TransformScratch makes transforms allocation-free in steady state:
// each buffer grows to the largest size requested and is reused
// verbatim afterwards. Each reconstruction worker (one per simulated
// GPU) owns exactly one Scratch and threads it through every transform
// it performs; Transform borrows one from an internal pool.
//
// A Scratch is NOT safe for concurrent use. Concurrent workers must
// each own their own arena; sharing one between goroutines corrupts
// in-flight transforms.
type Scratch struct {
	work []complex128 // Stockham ping-pong buffer
	conv []complex128 // Bluestein convolution workspace
}

// Bytes returns the arena's resident size.
func (s *Scratch) Bytes() int64 {
	return int64(cap(s.work)+cap(s.conv)) * 16
}

// workBuf returns the ping-pong buffer grown to at least n elements.
func (s *Scratch) workBuf(n int) []complex128 {
	if cap(s.work) < n {
		s.work = make([]complex128, n)
	}
	return s.work[:n]
}

// convBuf returns the Bluestein workspace grown to at least n elements.
func (s *Scratch) convBuf(n int) []complex128 {
	if cap(s.conv) < n {
		s.conv = make([]complex128, n)
	}
	return s.conv[:n]
}

// Warm pre-grows the arena for transforms of a w x h plan so that even
// the first TransformScratch call performs no allocation. Safe to call
// with any plan the arena will later serve; the arena keeps the
// largest size seen.
func (s *Scratch) Warm(p *Plan2D) {
	s.workBuf(max(p.rowPlan.workLen(1), p.colPlan.workLen(p.w)))
	s.convBuf(max(p.rowPlan.convLen(1), p.colPlan.convLen(p.w)))
}
