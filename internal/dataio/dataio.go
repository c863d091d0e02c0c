// Package dataio defines the binary on-disk dataset format used by the
// command-line tools: a self-describing container holding the scan
// pattern, probe wavefunction, propagator, and per-location diffraction
// amplitudes. The format is little-endian and versioned.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "PTYCHOv1"
//	header  9 x int64: windowN, slices, imageW, imageH, numLocations,
//	                   hasProp (0/1), stepPix*1e6, radiusPix*1e6, reserved
//	probe   2*windowN^2 float64 (re, im interleaved)
//	prop    2*windowN^2 float64 (present when hasProp == 1)
//	locs    numLocations x (int64 index, float64 x, y, radius)
//	meas    numLocations x windowN^2 float64 amplitudes
//
// The complete byte-level specification of every format in this
// package — PTYCHOv1, the OBJCKv1 object checkpoint and the PTYCHS
// incremental stream — together with the grid transport's PTGW wire
// frames, lives in docs/FORMATS.md.
package dataio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"ptychopath/internal/grid"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/wire"
)

var magic = [8]byte{'P', 'T', 'Y', 'C', 'H', 'O', 'v', '1'}

// ErrHeaderBounds is returned by every reader in this package when a
// header declares dimensions outside the decoder's resource caps —
// frame (window) size, slice count, location count, image extent. The
// check runs BEFORE any payload-sized allocation, so a hostile or
// corrupt header can never commit the process to multi-gigabyte
// buffers it will immediately throw away.
var ErrHeaderBounds = errors.New("dataio: header dimensions out of bounds")

// Decoder resource caps. Generous for any real acquisition, small
// enough that a header passing them cannot demand a problematic
// allocation up front.
const (
	maxWindowN   = 4096
	maxSlices    = 1 << 14
	maxLocations = 1 << 20
	maxImageDim  = 1 << 20
)

// checkDatasetHeader bounds the PTYCHOv1 / PTYCHS geometry fields.
func checkDatasetHeader(windowN, slices, imageW, imageH, numLoc int) error {
	switch {
	case windowN <= 0 || windowN > maxWindowN:
		return fmt.Errorf("%w: window %d (want 1..%d)", ErrHeaderBounds, windowN, maxWindowN)
	case slices <= 0 || slices > maxSlices:
		return fmt.Errorf("%w: %d slices (want 1..%d)", ErrHeaderBounds, slices, maxSlices)
	case imageW <= 0 || imageW > maxImageDim || imageH <= 0 || imageH > maxImageDim:
		return fmt.Errorf("%w: image %dx%d (want 1..%d per edge)", ErrHeaderBounds, imageW, imageH, maxImageDim)
	case numLoc < 0 || numLoc > maxLocations:
		return fmt.Errorf("%w: %d locations (want 0..%d)", ErrHeaderBounds, numLoc, maxLocations)
	}
	return nil
}

// Write serializes a problem to w.
func Write(w io.Writer, prob *solver.Problem) error {
	if err := prob.Validate(); err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	hasProp := int64(0)
	if prob.Prop != nil {
		hasProp = 1
	}
	var c codec
	if err := c.writeInt64s(bw,
		int64(prob.WindowN), int64(prob.Slices),
		int64(prob.Pattern.ImageW), int64(prob.Pattern.ImageH),
		int64(prob.Pattern.N()), hasProp,
		int64(math.Round(prob.Pattern.StepPix*1e6)),
		int64(math.Round(prob.Pattern.RadiusPix*1e6)),
		0,
	); err != nil {
		return err
	}
	if err := c.writeComplex(bw, prob.Probe); err != nil {
		return err
	}
	if prob.Prop != nil {
		if err := c.writeComplex(bw, prob.Prop); err != nil {
			return err
		}
	}
	for _, l := range prob.Pattern.Locations {
		c.buf = wire.AppendInt64(c.buf[:0], int64(l.Index))
		c.buf = wire.AppendFloat64(c.buf, l.X)
		c.buf = wire.AppendFloat64(c.buf, l.Y)
		c.buf = wire.AppendFloat64(c.buf, l.Radius)
		if _, err := bw.Write(c.buf); err != nil {
			return err
		}
	}
	for _, m := range prob.Meas {
		if err := c.writeFloat64s(bw, m.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// codec is the scratch of the bulk little-endian paths shared by the
// PTYCHOv1, OBJCKv1 and PTYCHS opening codecs. One buffer, reused for
// every header, location and array of a file, carries the bytes, and
// internal/wire converts them in bulk (a memory copy on little-endian
// hosts) — the bytes are exactly what encoding/binary writes, without
// its per-call reflection and allocations.
type codec struct{ buf []byte }

func (c *codec) writeInt64s(w io.Writer, vs ...int64) error {
	c.buf = c.buf[:0]
	for _, v := range vs {
		c.buf = wire.AppendInt64(c.buf, v)
	}
	_, err := w.Write(c.buf)
	return err
}

func (c *codec) writeFloat64s(w io.Writer, vs []float64) error {
	c.buf = wire.AppendFloat64s(c.buf[:0], vs)
	_, err := w.Write(c.buf)
	return err
}

// writeComplex writes a's values as interleaved (re, im) float64s.
func (c *codec) writeComplex(w io.Writer, a *grid.Complex2D) error {
	c.buf = wire.AppendComplex128s(c.buf[:0], a.Data)
	_, err := w.Write(c.buf)
	return err
}

// read reads exactly n bytes into the scratch. Like binary.Read it
// returns io.EOF when no byte arrives and io.ErrUnexpectedEOF when the
// stream ends part-way.
func (c *codec) read(r io.Reader, n int) ([]byte, error) {
	if cap(c.buf) < n {
		c.buf = make([]byte, n) // exact: an object slice can be large
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(r, c.buf); err != nil {
		return nil, err
	}
	return c.buf, nil
}

func (c *codec) readInt64s(r io.Reader, dst []int64) error {
	b, err := c.read(r, 8*len(dst))
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = wire.Int64(b[8*i:])
	}
	return nil
}

func (c *codec) readFloat64s(r io.Reader, dst []float64) error {
	b, err := c.read(r, 8*len(dst))
	if err != nil {
		return err
	}
	wire.Float64s(dst, b)
	return nil
}

// readComplex reads an n x n array of interleaved (re, im) float64s.
func (c *codec) readComplex(r io.Reader, n int) (*grid.Complex2D, error) {
	b, err := c.read(r, 16*n*n)
	if err != nil {
		return nil, err
	}
	a := grid.NewComplex2DSize(n, n)
	wire.Complex128s(a.Data, b)
	return a, nil
}

// Read deserializes a problem from r.
func Read(r io.Reader) (*solver.Problem, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("dataio: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("dataio: bad magic %q (not a PTYCHOv1 file)", m)
	}
	var c codec
	header := make([]int64, 9)
	if err := c.readInt64s(br, header); err != nil {
		return nil, fmt.Errorf("dataio: reading header: %w", err)
	}
	windowN := int(header[0])
	slices := int(header[1])
	imageW, imageH := int(header[2]), int(header[3])
	numLoc := int(header[4])
	hasProp := header[5] == 1
	if err := checkDatasetHeader(windowN, slices, imageW, imageH, numLoc); err != nil {
		return nil, err
	}
	probe, err := c.readComplex(br, windowN)
	if err != nil {
		return nil, fmt.Errorf("dataio: reading probe: %w", err)
	}
	var prop *grid.Complex2D
	if hasProp {
		if prop, err = c.readComplex(br, windowN); err != nil {
			return nil, fmt.Errorf("dataio: reading propagator: %w", err)
		}
	}
	pat := &scan.Pattern{
		ImageW: imageW, ImageH: imageH,
		StepPix:   float64(header[6]) / 1e6,
		RadiusPix: float64(header[7]) / 1e6,
	}
	pat.Locations = make([]scan.Location, numLoc)
	for i := range pat.Locations {
		// The index and the three coordinates are read apart, so a
		// stream that ends between them fails as binary.Read did.
		b, err := c.read(br, 8)
		if err == nil {
			pat.Locations[i].Index = int(wire.Int64(b))
			b, err = c.read(br, 3*8)
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: reading location %d: %w", i, err)
		}
		pat.Locations[i].X = wire.Float64(b)
		pat.Locations[i].Y = wire.Float64(b[8:])
		pat.Locations[i].Radius = wire.Float64(b[16:])
	}
	meas := make([]*grid.Float2D, numLoc)
	for i := range meas {
		a := grid.NewFloat2DSize(windowN, windowN)
		if err := c.readFloat64s(br, a.Data); err != nil {
			return nil, fmt.Errorf("dataio: reading measurement %d: %w", i, err)
		}
		meas[i] = a
	}
	prob := &solver.Problem{
		Pattern: pat, Meas: meas, Probe: probe, Prop: prop,
		WindowN: windowN, Slices: slices,
	}
	if err := prob.Validate(); err != nil {
		return nil, fmt.Errorf("dataio: loaded problem invalid: %w", err)
	}
	return prob, nil
}

// WriteFile serializes a problem to the named file.
func WriteFile(path string, prob *solver.Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return Write(f, prob)
}

// ReadFile deserializes a problem from the named file.
func ReadFile(path string) (*solver.Problem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataio: %w", err)
	}
	defer f.Close()
	return Read(f)
}
