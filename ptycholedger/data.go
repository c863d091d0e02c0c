package main

import (
	"bytes"
	"fmt"
	"math"

	"ptychopath/internal/dataio"
	"ptychopath/internal/gradsync"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/physics"
	"ptychopath/internal/scan"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// shape fixes the geometry of one generated dataset.
type shape struct {
	ScanN, WindowN, Slices int
}

// Geometry shared by every workload: the probe radius and linear
// overlap of cmd/datagen's defaults.
const (
	probeRadius = 8.0
	scanOverlap = 0.75
	stepSize    = 0.01 // the service's default gradient step
	chunkFrames = 16   // frames per PTYCHS chunk on the stream feed
)

// dataset is one generated input in every encoding a workload sends:
// the PTYCHOv1 batch container, and the PTYCHS opening plus
// chunkFrames-frame chunks. prob is decoded back from the batch bytes,
// so it holds exactly the values the server reconstructs from.
type dataset struct {
	shape   shape
	prob    *solver.Problem
	batch   []byte
	opening []byte
	chunks  [][]byte
}

// generate simulates a PbTiO3-like phantom under a raster scan, as
// cmd/datagen does, and encodes it. The seed drives the phantom; the
// simulation itself is noise-free.
func generate(sh shape, seed int64) (*dataset, error) {
	pat, err := scan.Raster(scan.RasterConfig{
		Cols: sh.ScanN, Rows: sh.ScanN,
		StepPix:   scan.StepForOverlap(probeRadius, scanOverlap),
		RadiusPix: probeRadius,
		MarginPix: float64(sh.WindowN)/2 + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	cfg := phantom.DefaultLeadTitanate(pat.ImageW, pat.ImageH, sh.Slices)
	cfg.Seed = seed
	if pat.ImageW < 160 {
		cfg.UnitCellPix = float64(pat.ImageW) / 5
	}
	obj, err := phantom.LeadTitanate(cfg)
	if err != nil {
		return nil, fmt.Errorf("phantom: %w", err)
	}
	sim, err := solver.Simulate(solver.SimulateConfig{
		Optics: physics.PaperOptics(), Pattern: pat, Object: obj,
		WindowN: sh.WindowN, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	var batch bytes.Buffer
	if err := dataio.Write(&batch, sim); err != nil {
		return nil, err
	}
	prob, err := dataio.Read(bytes.NewReader(batch.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("decoding generated dataset: %w", err)
	}
	var opening bytes.Buffer
	if err := dataio.WriteStreamHeader(&opening, dataio.HeaderFromProblem(prob)); err != nil {
		return nil, err
	}
	ds := &dataset{shape: sh, prob: prob, batch: batch.Bytes(), opening: opening.Bytes()}
	frames := dataio.FramesFromProblem(prob)
	for lo := 0; lo < len(frames); lo += chunkFrames {
		var c bytes.Buffer
		if err := dataio.WriteFrameChunk(&c, prob.WindowN, frames[lo:min(lo+chunkFrames, len(frames))]); err != nil {
			return nil, err
		}
		ds.chunks = append(ds.chunks, c.Bytes())
	}
	return ds, nil
}

func vacuum(prob *solver.Problem) []*grid.Complex2D {
	return phantom.Vacuum(prob.ImageBounds(), prob.Slices).Slices
}

func encodeObject(slices []*grid.Complex2D) ([]byte, error) {
	var b bytes.Buffer
	if err := dataio.WriteObject(&b, slices); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// reference is what a workload's downloaded objects are checked
// against, computed by a direct call into the engine the server runs.
type reference struct {
	object  []byte            // exact OBJCKv1 bytes, when the output is deterministic
	slices  []*grid.Complex2D // the reference object itself
	vacCost float64           // cost of the vacuum start, for the stream check
	gd      *gradsync.Result  // the direct gd run, when the workload is gd
}

// gdOptions are the options the service gives a batch gd job with
// default parameters on a rows x cols mesh.
func gdOptions(prob *solver.Problem, rows, cols, iters int) (gradsync.Options, error) {
	mesh, err := tiling.NewMesh(prob.ImageBounds(), rows, cols, tiling.HaloForWindow(prob.WindowN))
	if err != nil {
		return gradsync.Options{}, err
	}
	return gradsync.Options{
		Mesh: mesh, Mode: gradsync.ModeBatch, StepSize: stepSize,
		Iterations: iters, RoundsPerIteration: 1,
	}, nil
}

func referenceGD(prob *solver.Problem, iters int) (*reference, error) {
	opt, err := gdOptions(prob, 2, 2, iters)
	if err != nil {
		return nil, err
	}
	r, err := gradsync.Reconstruct(prob, vacuum(prob), opt)
	if err != nil {
		return nil, fmt.Errorf("reference gradsync run: %w", err)
	}
	obj, err := encodeObject(r.Slices)
	if err != nil {
		return nil, err
	}
	return &reference{object: obj, slices: r.Slices, gd: r}, nil
}

func referenceSerial(prob *solver.Problem, iters int) (*reference, error) {
	r, err := solver.Reconstruct(prob, vacuum(prob), solver.Options{
		StepSize: stepSize, Iterations: iters, Mode: solver.Batch,
	})
	if err != nil {
		return nil, fmt.Errorf("reference solver run: %w", err)
	}
	obj, err := encodeObject(r.Slices)
	if err != nil {
		return nil, err
	}
	return &reference{object: obj, slices: r.Slices}, nil
}

// referenceStream holds no exact object: a streaming job folds frames
// at whatever iteration boundaries they arrive, so its result depends
// on timing. The check is structural plus a cost bound.
func referenceStream(prob *solver.Problem) *reference {
	vac := vacuum(prob)
	return &reference{slices: vac, vacCost: solver.Cost(prob, vac)}
}

// checkObject verifies one downloaded object: byte-identical to the
// reference when there is an exact one, otherwise an OBJCKv1 of the
// expected shape whose cost is finite and below the vacuum start's.
func checkObject(got []byte, ref *reference, prob *solver.Problem) error {
	if ref.object != nil {
		if !bytes.Equal(got, ref.object) {
			return fmt.Errorf("object differs from the direct reference run (%d vs %d bytes)", len(got), len(ref.object))
		}
		return nil
	}
	slices, err := dataio.ReadObject(bytes.NewReader(got))
	if err != nil {
		return fmt.Errorf("object does not decode: %w", err)
	}
	if len(slices) != prob.Slices {
		return fmt.Errorf("object has %d slices, want %d", len(slices), prob.Slices)
	}
	for _, s := range slices {
		if !s.Bounds.Eq(prob.ImageBounds()) {
			return fmt.Errorf("object slice bounds %v, want %v", s.Bounds, prob.ImageBounds())
		}
	}
	cost := solver.Cost(prob, slices)
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost >= ref.vacCost {
		return fmt.Errorf("object cost %g is not finite and below the vacuum start's %g", cost, ref.vacCost)
	}
	return nil
}
