package engine_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/phantom"
	"ptychopath/internal/simmpi"
	"ptychopath/internal/solver"
)

func shardPlan(t *testing.T, alg string, prob *solver.Problem, iters int) *engine.Plan {
	t.Helper()
	plan, err := engine.New(engine.Spec{
		Algorithm: alg, MeshRows: 2, MeshCols: 2, StepSize: 0.02,
		Iterations: iters, Timeout: time.Minute,
	}, prob.ImageBounds(), prob.WindowN)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// warmStart is a non-vacuum initial object, so a shard that shipped the
// wrong region of it would change the result.
func warmStart(prob *solver.Problem) []*grid.Complex2D {
	return phantom.RandomObject(prob.Pattern.ImageW, prob.Pattern.ImageH, prob.Slices, 7).Slices
}

// withoutTile drops every location rank 0 of a 2x2 mesh would own, so
// that tile's shard is empty.
func withoutTile(t *testing.T, prob *solver.Problem) *solver.Problem {
	t.Helper()
	owned := shardPlan(t, engine.GD, prob, 1).Mesh.AssignLocations(prob.Pattern)
	out := *prob
	pat := *prob.Pattern
	pat.Locations = nil
	out.Meas = nil
	for i, l := range prob.Pattern.Locations {
		if !slices.Contains(owned[0], i) {
			pat.Locations = append(pat.Locations, l)
			out.Meas = append(out.Meas, prob.Meas[i])
		}
	}
	out.Pattern = &pat
	return &out
}

// TestShardLocations: every rank's shard holds exactly the locations
// the engine selects on the full pattern — AssignLocations, plus
// ExtraRowLocations for hve — in global order, with their
// measurements, the unchanged geometry and the rank's warm-start tile.
func TestShardLocations(t *testing.T) {
	prob := problem(t)
	init := warmStart(prob)
	for _, alg := range []string{engine.GD, engine.HVE} {
		plan := shardPlan(t, alg, prob, 1)
		owned := plan.Mesh.AssignLocations(prob.Pattern)
		extras := 0
		for rank := 0; rank < plan.Ranks(); rank++ {
			want := slices.Clone(owned[rank])
			if alg == engine.HVE {
				r, c := plan.Mesh.RowCol(rank)
				extra := plan.Mesh.ExtraRowLocations(prob.Pattern, owned, r, c, plan.ExtraRows)
				extras += len(extra)
				want = append(want, extra...)
				slices.Sort(want)
			}
			shard, tile, err := plan.Shard(prob, init, rank)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s rank %d", alg, rank)
			if len(shard.Meas) != len(want) || shard.Pattern.N() != len(want) {
				t.Fatalf("%s: %d locations / %d measurements, want %d",
					name, shard.Pattern.N(), len(shard.Meas), len(want))
			}
			for k, i := range want {
				if shard.Pattern.Locations[k] != prob.Pattern.Locations[i] || shard.Meas[k] != prob.Meas[i] {
					t.Fatalf("%s: shard location %d is not global location %d", name, k, i)
				}
			}
			if !shard.ImageBounds().Eq(prob.ImageBounds()) || shard.Pattern.StepPix != prob.Pattern.StepPix ||
				shard.Pattern.RadiusPix != prob.Pattern.RadiusPix || shard.Probe != prob.Probe ||
				shard.Prop != prob.Prop || shard.WindowN != prob.WindowN || shard.Slices != prob.Slices {
				t.Fatalf("%s: shard geometry differs from the full problem", name)
			}
			ext := plan.TileBounds(rank)
			if len(tile) != prob.Slices {
				t.Fatalf("%s: %d tile slices, want %d", name, len(tile), prob.Slices)
			}
			for s := range tile {
				if !tile[s].Bounds.Eq(ext) || !tile[s].EqualWithin(init[s].Extract(ext), 0) {
					t.Fatalf("%s: tile slice %d is not the warm start on %v", name, s, ext)
				}
			}
		}
		if alg == engine.HVE && extras == 0 {
			t.Fatal("hve shards carry no extra rows: the fixture does not exercise them")
		}
	}
	if _, _, err := shardPlan(t, engine.GD, prob, 1).Shard(prob, init, 4); err == nil {
		t.Fatal("Shard accepted a rank outside the mesh")
	}
}

// TestShardRunRankBitIdentical: ranks that each run RunRank on their
// own shard produce byte-identical results and cost histories to the
// in-process Run on the full problem — with a warm start, with hve's
// extra rows, and with a tile whose shard is empty.
func TestShardRunRankBitIdentical(t *testing.T) {
	full := problem(t)
	for _, tc := range []struct {
		name string
		alg  string
		prob *solver.Problem
	}{
		{"gd", engine.GD, full},
		{"hve", engine.HVE, full},
		{"gd empty tile", engine.GD, withoutTile(t, full)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prob, init := tc.prob, warmStart(tc.prob)
			plan := shardPlan(t, tc.alg, prob, 4)
			want, err := plan.Run(prob, init, solver.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := collective.Reconstruct(plan.Mesh, plan.Timeout, nil,
				func(comm simmpi.Transport) (*collective.RankOutcome, error) {
					shard, tile, err := plan.Shard(prob, init, comm.Rank())
					if err != nil {
						return nil, err
					}
					return plan.RunRank(comm, shard, tile, solver.Hooks{})
				})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.CostHistory, want.CostHistory) {
				t.Fatalf("cost history %v, want %v", got.CostHistory, want.CostHistory)
			}
			for s := range want.Slices {
				if !slices.Equal(got.Slices[s].Data, want.Slices[s].Data) {
					t.Fatalf("slice %d differs from the full-problem run", s)
				}
			}
		})
	}
}
