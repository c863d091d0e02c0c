package jobs

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"ptychopath/internal/collective"
	"ptychopath/internal/dataio"
	"ptychopath/internal/engine"
	"ptychopath/internal/grid"
	"ptychopath/internal/solver"
	"ptychopath/internal/transport"
)

// The grid coordinator: when Config.GridAddr is set, the service runs a
// transport.Hub that worker processes (cmd/ptychoworker) register with,
// and jobs submitted with Params.Grid execute their parallel engine
// across those processes instead of in-process goroutines — one rank
// per leased worker endpoint, mesh tiles sharded across them, traffic
// routed over the CRC-framed TCP transport. Progress, snapshots and
// checkpoints reuse the exact machinery of local jobs: the worker
// running rank 0 relays per-iteration cost and periodic stitched
// snapshots, and the coordinator writes the same OBJCKv1 checkpoints,
// so cancel/resume/previews/SSE behave identically for grid jobs.
//
// A worker lost mid-run fails the session: every other rank's blocking
// operation returns transport.ErrPeerLost, the job transitions to
// Failed, and the last received snapshot is flushed as a final
// checkpoint — Resume then continues the work from it.

// ErrNoGrid is returned by Submit for a Params.Grid job when the
// service was started without a grid listener.
var ErrNoGrid = fmt.Errorf("%w: no worker grid configured (start the service with a grid address)", ErrInvalidParams)

// GridEnabled reports whether the service runs a worker grid.
func (s *Service) GridEnabled() bool { return s.grid != nil }

// GridAddr returns the hub's listen address ("" without a grid).
func (s *Service) GridAddr() string {
	if s.grid == nil {
		return ""
	}
	return s.grid.Addr().String()
}

// GridWorkerInfo describes one registered grid worker endpoint.
type GridWorkerInfo = transport.WorkerInfo

// GridWorkers lists the registered grid workers.
func (s *Service) GridWorkers() []transport.WorkerInfo {
	if s.grid == nil {
		return nil
	}
	return s.grid.Workers()
}

// executeGrid runs one parallel job's plan across leased grid workers,
// relaying the session's progress into the job's hooks. On session
// failure it returns the last snapshot received (possibly nil) so the
// caller flushes a final checkpoint, mirroring the partial-result
// contract of the in-process engines.
func (s *Service) executeGrid(j *Job, plan *engine.Plan, init []*grid.Complex2D, h solver.Hooks) ([]*grid.Complex2D, error) {
	setups, err := gridSetups(plan, j.prob, init, transport.Setup{
		JobID:     j.id,
		Algorithm: plan.Algorithm,
		MeshRows:  plan.MeshRows, MeshCols: plan.MeshCols, Halo: plan.Halo,
		HaloWidth: plan.Halo, ExtraRows: plan.ExtraRows,
		StepSize: plan.StepSize, Iterations: plan.Iterations,
		RoundsPerIteration: plan.RoundsPerIteration,
		IntraWorkers:       plan.IntraWorkers,
		SnapshotEvery:      h.SnapshotEvery,
		TimeoutMS:          plan.Timeout.Milliseconds(),
		Trace:              j.params.RequestID,
	})
	if err != nil {
		return nil, err
	}

	// lastSnap tracks the newest decoded snapshot for the final-
	// checkpoint-on-failure guarantee; snapshots arrive on hub
	// goroutines. The workers report run-local indices; the hooks
	// shift them by the job's StartIter like the in-process engines.
	//
	// The setup phase ends when StartSession returns, with every SETUP
	// on the wire. Progress arrives on hub goroutines, so it waits for
	// that boundary to be recorded; a snapshot always follows its
	// iteration's progress on rank 0's connection.
	var snapMu sync.Mutex
	var lastSnap []*grid.Complex2D
	dispatched := make(chan struct{})
	sess, err := s.grid.StartSession(setups, transport.SessionCallbacks{
		OnIteration: func(iter int, cost float64) {
			<-dispatched
			h.ReportIteration(iter, cost)
		},
		OnRankTiming: func(rank, iter int, computeNS, commNS int64) {
			<-dispatched
			h.ReportRankStats(rank, iter, computeNS, commNS)
		},
		OnSnapshot: func(iter int, object []byte) error {
			slices, err := dataio.ReadObject(bytes.NewReader(object))
			if err != nil {
				return err
			}
			snapMu.Lock()
			lastSnap = slices
			snapMu.Unlock()
			return h.Snapshot(iter, slices)
		},
	})
	j.beginIterations()
	close(dispatched)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}

	// Relay job cancellation: ask every rank to stop at its next
	// iteration boundary, and hard-abort the session if the drain
	// stalls longer than the communication timeout.
	waitCtx, cancelWait := context.WithCancel(context.Background())
	defer cancelWait()
	stopRelay := context.AfterFunc(h.Ctx, func() {
		sess.Cancel()
		t := time.AfterFunc(plan.Timeout, cancelWait)
		context.AfterFunc(waitCtx, func() { t.Stop() })
	})
	defer stopRelay()

	results, err := sess.Wait(waitCtx)
	if err != nil {
		snapMu.Lock()
		snap := lastSnap
		snapMu.Unlock()
		return snap, fmt.Errorf("grid: %w", err)
	}
	outs := make([]*collective.RankOutcome, len(results))
	for i, r := range results {
		slices, err := dataio.ReadObject(bytes.NewReader(r.Tile))
		if err != nil {
			return nil, fmt.Errorf("grid: decoding rank %d tile: %w", i, err)
		}
		outs[i] = &collective.RankOutcome{
			Slices: slices, CostHistory: r.CostHistory,
			Locations: r.Locations, Owned: r.Owned, MemBytes: r.MemBytes,
			ComputeNS: r.ComputeNS, CommNS: r.CommNS,
			SentBytes: r.SentBytes, SentMessages: r.SentMessages,
			Cancelled: r.Cancelled,
		}
	}
	res, err := plan.Assemble(outs)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	if outs[0].Cancelled {
		return res.Slices, context.Canceled
	}
	return res.Slices, nil
}

// gridSetups returns one SETUP per rank of plan: a copy of session
// with the rank's own shard of prob and init (engine.Plan.Shard)
// encoded as PTYCHOv1 and OBJCKv1 — each rank receives only what it
// computes on.
func gridSetups(plan *engine.Plan, prob *solver.Problem, init []*grid.Complex2D, session transport.Setup) ([]*transport.Setup, error) {
	setups := make([]*transport.Setup, plan.Ranks())
	for r := range setups {
		shard, tile, err := plan.Shard(prob, init, r)
		if err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		var probBuf, initBuf bytes.Buffer
		if err := dataio.Write(&probBuf, shard); err != nil {
			return nil, fmt.Errorf("grid: encoding rank %d shard: %w", r, err)
		}
		if err := dataio.WriteObject(&initBuf, tile); err != nil {
			return nil, fmt.Errorf("grid: encoding rank %d warm start: %w", r, err)
		}
		s := session
		s.Problem, s.Init = probBuf.Bytes(), initBuf.Bytes()
		setups[r] = &s
	}
	return setups, nil
}
