package dataio

import (
	"bytes"
	"testing"

	"ptychopath/internal/grid"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
)

// codecProblem is a dataset of the ledger's recon shape — a 16x16
// raster (256 locations) with a 32 px window and one slice — with
// synthetic measurements: the codec cost depends on the shape, not on
// the values.
func codecProblem(b *testing.B) *solver.Problem {
	b.Helper()
	pat, err := scan.Raster(scan.RasterConfig{Cols: 16, Rows: 16, StepPix: 4, RadiusPix: 8, MarginPix: 18})
	if err != nil {
		b.Fatal(err)
	}
	meas := make([]*grid.Float2D, pat.N())
	for i := range meas {
		meas[i] = grid.NewFloat2DSize(32, 32)
		for k := range meas[i].Data {
			meas[i].Data[k] = float64(i + k)
		}
	}
	return &solver.Problem{Pattern: pat, Meas: meas, Probe: physics.PaperOptics().Probe(32),
		WindowN: 32, Slices: 1}
}

// BenchmarkPtychoCodec measures one PTYCHOv1 write plus one read of the
// ledger-sized dataset (~2.1 MB) from memory — what a batch upload
// costs the server and a grid shard costs the coordinator and a
// worker. Bytes/op counts both directions, so MB/s is codec
// throughput. scripts/benchguard.sh gates it against
// BENCH_2026-10-18_ptycho_codec.json.
func BenchmarkPtychoCodec(b *testing.B) {
	prob := codecProblem(b)
	var buf bytes.Buffer
	if err := Write(&buf, prob); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, prob); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
