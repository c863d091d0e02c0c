package collective

import (
	"context"
	"fmt"
	"time"

	"ptychopath/internal/grid"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
	"ptychopath/internal/tiling"
)

// RankOutcome is one rank's view of a finished (or cancelled) parallel
// run: the final extended-tile object, this rank's statistics, and
// whether the run stopped at a collective cancellation. It is
// everything a remote worker must ship back to a coordinator for
// stitching — the distributed grid (internal/transport,
// internal/gridworker) serializes exactly this.
type RankOutcome struct {
	// Slices is the rank's reconstruction on its extended-tile bounds.
	Slices []*grid.Complex2D
	// CostHistory holds the all-reduced global cost per iteration
	// (identical on every rank).
	CostHistory []float64
	// Locations counts the probe locations the rank computes; Owned
	// only those it owns (halo voxel exchange also reconstructs
	// redundant neighbor locations — for gradient decomposition the two
	// are equal).
	Locations, Owned int
	// MemBytes estimates the rank's resident footprint.
	MemBytes int64
	// ComputeNS and CommNS are wall-clock nanoseconds spent in gradient
	// computation and in the engine's exchanges.
	ComputeNS, CommNS int64
	// SentBytes and SentMessages count this rank's outgoing payload
	// traffic.
	SentBytes, SentMessages int64
	// Cancelled reports that the run stopped early at a collective
	// Ctx-cancellation decision; Slices then holds the partial state.
	Cancelled bool
}

// Result carries a stitched parallel reconstruction and its run
// statistics.
type Result struct {
	// Slices is the stitched reconstruction (halos abandoned, interiors
	// concatenated — Alg 1 line 20).
	Slices []*grid.Complex2D
	// CostHistory holds the global cost F(V) per iteration.
	CostHistory []float64
	// BytesSent and MessagesSent aggregate all exchanges.
	BytesSent    int64
	MessagesSent int64
	// PerRankLocations[rank] counts the locations the rank computed;
	// PerRankOwned only those it owns (they differ for halo voxel
	// exchange, whose redundant locations are its overhead versus
	// gradient decomposition).
	PerRankLocations []int
	PerRankOwned     []int
	// PerRankMemBytes estimates each rank's resident footprint.
	PerRankMemBytes []int64
	// PerRankComputeNS / PerRankCommNS are measured wall-clock
	// nanoseconds each rank spent in gradient computation and in
	// exchanges (the functional counterpart of Fig 7b's compute and
	// wait+comm bars).
	PerRankComputeNS []int64
	PerRankCommNS    []int64
}

// Assemble stitches per-rank outcomes into the aggregate Result — the
// one stitch the in-process driver and the grid coordinator (which
// receives the outcomes over TCP) share, so a grid run's object is
// byte-for-byte the in-process one. outs must have exactly
// mesh.NumTiles() entries in rank order, every entry non-nil.
func Assemble(m *tiling.Mesh, outs []*RankOutcome) (*Result, error) {
	ranks := len(outs)
	if ranks != m.NumTiles() {
		return nil, fmt.Errorf("collective: %d outcomes for %d tiles", ranks, m.NumTiles())
	}
	tiles := make([][]*grid.Complex2D, ranks)
	res := &Result{
		PerRankLocations: make([]int, ranks),
		PerRankOwned:     make([]int, ranks),
		PerRankMemBytes:  make([]int64, ranks),
		PerRankComputeNS: make([]int64, ranks),
		PerRankCommNS:    make([]int64, ranks),
	}
	for rank, out := range outs {
		if out == nil || len(out.Slices) == 0 {
			return nil, fmt.Errorf("collective: missing outcome for rank %d", rank)
		}
		tiles[rank] = out.Slices
		res.PerRankLocations[rank] = out.Locations
		res.PerRankOwned[rank] = out.Owned
		res.PerRankMemBytes[rank] = out.MemBytes
		res.PerRankComputeNS[rank] = out.ComputeNS
		res.PerRankCommNS[rank] = out.CommNS
		res.BytesSent += out.SentBytes
		res.MessagesSent += out.SentMessages
	}
	res.CostHistory = outs[0].CostHistory
	res.Slices = m.StitchSlices(tiles)
	return res, nil
}

// Reconstruct is the in-process world driver of the parallel engines:
// it runs rank on one goroutine per mesh tile over a simmpi world and
// stitches the outcomes. After a collective cancellation it returns the
// PARTIAL stitched Result together with ctx's error.
func Reconstruct(m *tiling.Mesh, timeout time.Duration, ctx context.Context,
	rank func(comm simmpi.Transport) (*RankOutcome, error)) (*Result, error) {
	outs := make([]*RankOutcome, m.NumTiles())
	err := simmpi.Run(len(outs), timeout, func(comm *simmpi.Comm) error {
		out, err := rank(comm)
		if err != nil {
			return err
		}
		outs[comm.Rank()] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	res, err := Assemble(m, outs)
	if err != nil {
		return nil, err
	}
	if outs[0].Cancelled {
		return res, ctx.Err()
	}
	return res, nil
}

// Rank is one rank of a parallel engine as Drive sees it.
type Rank interface {
	// Iterate runs one full iteration over the rank's locations,
	// including the engine's own exchanges, and returns the local cost.
	Iterate() (float64, error)
	// Slices returns the rank's live extended-tile object.
	Slices() []*grid.Complex2D
	// Times returns the cumulative nanoseconds spent in gradient
	// computation and in exchanges.
	Times() (computeNS, commNS int64)
}

// Drive runs up to iterations iterations of r and performs the
// iteration-boundary step both parallel engines share: allreduce the
// cost, report this rank's stats, report the global cost on rank 0,
// take the snapshot, apply the early stop (stopBelow > 0), then make
// the collective cancellation decision. Every decision uses all-reduced
// values, so all ranks leave the loop at the same iteration. Drive
// fills out's Slices, CostHistory, timings, traffic and Cancelled; the
// engine fills the rest.
func Drive(comm simmpi.Transport, m *tiling.Mesh, r Rank, iterations int, stopBelow float64,
	h *solver.Hooks, out *RankOutcome) error {
	snaps := NewSnapshots(m, h)
	hist := make([]float64, 0, iterations)
	var prevComputeNS, prevCommNS int64
	for iter := 0; iter < iterations; iter++ {
		local, err := r.Iterate()
		if err != nil {
			return fmt.Errorf("rank %d iteration %d: %w", comm.Rank(), iter, err)
		}
		global, err := comm.AllreduceSum(local)
		if err != nil {
			return err
		}
		hist = append(hist, global)
		if h.OnRankStats != nil {
			// Times are cumulative; report this iteration's delta so
			// the callback sees per-phase time per iteration.
			computeNS, commNS := r.Times()
			h.ReportRankStats(comm.Rank(), iter, computeNS-prevComputeNS, commNS-prevCommNS)
			prevComputeNS, prevCommNS = computeNS, commNS
		}
		if comm.Rank() == 0 {
			h.ReportIteration(iter, global)
		}
		if snaps.Due(iter) {
			if err := snaps.Run(comm, r.Slices(), iter); err != nil {
				return fmt.Errorf("snapshot at iteration %d: %w", iter, err)
			}
		}
		if stopBelow > 0 && global < stopBelow {
			break
		}
		if stop, err := Cancelled(comm, h.Ctx); err != nil {
			return err
		} else if stop {
			out.Cancelled = true
			break
		}
	}
	out.Slices = r.Slices()
	out.CostHistory = hist
	out.ComputeNS, out.CommNS = r.Times()
	out.SentBytes = comm.SentBytes()
	out.SentMessages = comm.SentMessages()
	return nil
}
