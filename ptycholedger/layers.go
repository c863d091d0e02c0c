package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ptychopath/internal/dataio"
	"ptychopath/internal/jobs"
	"ptychopath/internal/jobs/store"
	"ptychopath/internal/solver"
)

// durs maps samples to milliseconds.
func durs(js []*jobSample, f func(*jobSample) time.Duration) []float64 {
	out := make([]float64, len(js))
	for i, s := range js {
		out[i] = ms(f(s))
	}
	return out
}

// endToEnd adds the end-to-end readings of one window to l: the
// per-workload metrics BENCHMARK.json gates (job_ms.p50 and
// cpu_us_per_location; setup_s is added by the caller) and the workload's
// own named metrics, submit_ms.p50 among them.
func (b *bench) endToEnd(l *ledger, w *window) {
	js := w.jobs
	n := len(js)
	wall := w.end.Sub(w.begin)
	failRatio := float64(w.failed+w.refused+w.wrong) / float64(max(w.attempted, 1))
	heapKB := float64(w.heapDelta) / 1024 / float64(n)
	switch {
	case len(b.w.ladder) > 0:
		first := w.steps[0]
		fin := func(s *jobSample) time.Duration { return s.final.Finished.Sub(s.due) }
		jobMS := durs(first.jobs, fin)
		subMS := durs(first.jobs, func(s *jobSample) time.Duration { return s.accepted.Sub(s.due) })
		l.add("job_ms.p50", "ms", median(jobMS), len(jobMS), fmt.Sprintf("due -> server finished, %g jobs/s step", first.rate))
		l.add("submit_ms.p50", "ms", median(subMS), len(subMS), fmt.Sprintf("due -> 202, %g jobs/s step", first.rate))
		l.add("cpu_us_per_location", "us", cpuPerEval(first.cpu, first.jobs), len(first.jobs), fmt.Sprintf("program CPU / location-gradient evaluations, %g jobs/s step", first.rate))
		l.add("cpu_ms_per_job", "ms", ms(first.cpu)/float64(len(first.jobs)), len(first.jobs), fmt.Sprintf("program CPU per job, %g jobs/s step", first.rate))
		l.tail("job_ms.p99", "ms", jobMS, 0.99, "100 jobs/s step")
		l.tail("submit_ms.p99", "ms", subMS, 0.99, "100 jobs/s step")
		l.tail("job_ms.p90", "ms", jobMS, 0.90, "100 jobs/s step")
		l.tail("submit_ms.p90", "ms", subMS, 0.90, "100 jobs/s step")
		l.add("accepted_ratio", "ratio", float64(first.sent-first.refused)/float64(max(first.sent, 1)), first.sent, "100 jobs/s step")
		for _, st := range w.steps {
			jm := durs(st.jobs, fin)
			l.add(fmt.Sprintf("ladder.%g.job_ms.p50", st.rate), "ms", median(jm), len(jm), "")
			l.add(fmt.Sprintf("ladder.%g.job_ms.p99", st.rate), "ms", quantile(jm, 0.99), len(jm), "max_rate_ok input; printed at any n")
			l.add(fmt.Sprintf("ladder.%g.refused", st.rate), "count", float64(st.refused), st.sent, "HTTP 429")
			l.add(fmt.Sprintf("ladder.%g.drain_ms", st.rate), "ms", ms(st.drain), 1, "last arrival answered -> backlog empty")
		}
		l.add("max_rate_ok", "1/s", maxRateOK(w.steps, fin), len(w.steps), "highest rate with p99 <= 250 ms, no 429, drain <= 250 ms")
		l.add("heap_kb_per_job", "KB", heapKB, n, "live heap after forced GC, after window minus before, per job")
	case b.w.streaming:
		eof := durs(js, func(s *jobSample) time.Duration { return s.downloaded.Sub(s.eof) })
		l.add("job_ms.p50", "ms", median(eof), n, "stream EOF -> object downloaded (eof_to_result_ms.p50)")
		l.add("submit_ms.p50", "ms", median(w.appendMS), len(w.appendMS), "16-frame chunk append round trip (append_ms.p50)")
		l.add("cpu_us_per_location", "us", cpuPerEval(w.cpu, js), n, "program CPU / location-gradient evaluations (active set summed over iteration events)")
		l.add("cpu_ms_per_job", "ms", ms(w.cpu)/float64(n), n, "program CPU per session")
		l.add("eof_to_result_ms.p50", "ms", median(eof), n, "")
		l.tail("eof_to_result_ms.p90", "ms", eof, 0.90, "")
		l.add("append_ms.p50", "ms", median(w.appendMS), len(w.appendMS), "")
		l.tail("append_ms.p90", "ms", w.appendMS, 0.90, "")
		l.add("heap_kb_per_job", "KB", heapKB, n, "live heap after forced GC, after window minus before, per session")
	default:
		job := durs(js, func(s *jobSample) time.Duration { return s.downloaded.Sub(s.start) })
		sub := durs(js, func(s *jobSample) time.Duration { return s.accepted.Sub(s.start) })
		l.add("job_ms.p50", "ms", median(job), n, "submit start -> object downloaded (job_s.p50 x 1000)")
		l.add("submit_ms.p50", "ms", median(sub), n, "multipart upload -> 202")
		l.add("cpu_us_per_location", "us", cpuPerEval(w.cpu, js), n, "program CPU (ptychoserve + ptychoworker) / location-gradient evaluations")
		l.add("cpu_ms_per_job", "ms", ms(w.cpu)/float64(n), n, "program CPU per job")
		l.add("job_s.p50", "s", median(job)/1000, n, "")
		l.tail("job_s.p90", "s", scale(job, 1e-3), 0.90, "")
		locs := float64(b.data.prob.Pattern.N() * b.w.request.Iterations * n)
		l.add("locations_per_s", "1/s", locs/wall.Seconds(), n, "location-gradient evaluations / wall")
		l.add("heap_kb_per_job", "KB", heapKB, n, "live heap after forced GC, after window minus before, per job")
	}
	if len(w.lateMS) > 0 {
		l.add("generator_late_ms.p50", "ms", median(w.lateMS), len(w.lateMS), "send time minus due time")
		l.add("generator_late_ms.max", "ms", maxOf(w.lateMS), len(w.lateMS), "")
	}
	for _, code := range slices.Sorted(maps.Keys(w.refusedBy)) {
		l.add("refused."+code, "count", float64(w.refusedBy[code]), w.attempted, "HTTP 429 by problem code")
	}
	l.add("host_steal_pct", "%", w.stealPct, 1, "CPU time the hypervisor gave other guests during the window; wall-clock metrics inflate with it")
	l.add("fail_ratio", "ratio", failRatio, w.attempted,
		fmt.Sprintf("(failed %d + refused %d + wrong %d) / attempted", w.failed, w.refused, w.wrong))
}

// cpuPerEval divides program CPU time by the location-gradient
// evaluations of js, in microseconds.
func cpuPerEval(cpu time.Duration, js []*jobSample) float64 {
	evals := 0
	for _, s := range js {
		evals += s.evals
	}
	return float64(cpu) / float64(time.Microsecond) / float64(evals)
}

// maxRateOK is the highest ladder rate that, like every rate below it,
// kept job_ms.p99 within 250 ms with no refusal and no backlog left
// 250 ms after its last arrival.
func maxRateOK(steps []*step, fin func(*jobSample) time.Duration) float64 {
	best := 0.0
	for _, st := range steps {
		p99 := quantile(durs(st.jobs, fin), 0.99)
		if st.refused > 0 || !(p99 <= 250) || st.drain > 250*time.Millisecond {
			break
		}
		best = st.rate
	}
	return best
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// spanStats summarizes the span timelines of a window's jobs.
type spanStats struct {
	byName     map[string][]float64 // coordinator spans, ms, every occurrence
	stageMS    []float64            // per job: queue-wait + setup + iterations + finalize
	compute    []float64            // per job: mean over ranks of summed compute ms
	comm       []float64
	computeSum float64
	commSum    float64
	spans      int
}

func summarizeSpans(js []*jobSample) *spanStats {
	st := &spanStats{byName: map[string][]float64{}}
	for _, s := range js {
		st.spans += len(s.spans)
		var stage float64
		rankCompute := map[int]float64{}
		rankComm := map[int]float64{}
		for _, sp := range s.spans {
			switch {
			case sp.Rank < 0:
				st.byName[sp.Name] = append(st.byName[sp.Name], sp.MS)
				switch sp.Name {
				case "queue-wait", "setup", "iteration", "finalize":
					stage += sp.MS
				}
			case sp.Name == "compute":
				rankCompute[sp.Rank] += sp.MS
			case sp.Name == "comm":
				rankComm[sp.Rank] += sp.MS
			}
		}
		st.stageMS = append(st.stageMS, stage)
		if len(rankCompute) > 0 {
			var c, m float64
			for r := range rankCompute {
				c += rankCompute[r]
				m += rankComm[r]
			}
			st.compute = append(st.compute, c/float64(len(rankCompute)))
			st.comm = append(st.comm, m/float64(len(rankCompute)))
			st.computeSum += c
			st.commSum += m
		}
	}
	return st
}

// orZero is v, or 0 where a layer is not on the workload's path (no
// sample): used only for counts and ratios, never for times.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// layerMetrics adds the per-layer readings: from the traced window's
// spans and counters, and from direct calls into each layer.
func (b *bench) layerMetrics(l *ledger, w *window, rssMB float64) error {
	var js []*jobSample // jobs whose trace arrived (a failed fetch counts in failed)
	for _, s := range w.jobs {
		if s.final != nil {
			js = append(js, s)
		}
	}
	n := len(js)
	if n == 0 {
		return fmt.Errorf("no traced job (first error: %v)", w.firstErr)
	}
	sp := summarizeSpans(js)
	open := len(b.w.ladder) > 0

	// httpapi: client-timed requests.
	l.add("httpapi.upload_ms.p50", "ms", median(durs(js, func(s *jobSample) time.Duration { return s.accepted.Sub(s.start) })), n, "submit request -> 202")
	l.add("httpapi.object_ms.p50", "ms", median(durs(js, func(s *jobSample) time.Duration { return s.downloaded.Sub(s.notified) })), n, "GET object")
	l.add("httpapi.refused", "count", float64(w.refused), w.attempted, "HTTP 429 answers")
	if b.w.streaming {
		l.add("httpapi.frames_ms.p50", "ms", median(w.appendMS), len(w.appendMS), "POST frames round trip")
	}

	// jobs: the service's stage spans.
	l.add("jobs.queue_wait_ms.p50", "ms", median(sp.byName["queue-wait"]), len(sp.byName["queue-wait"]), "span")
	l.tail("jobs.queue_wait_ms.p99", "ms", sp.byName["queue-wait"], 0.99, "span")
	l.add("jobs.setup_ms.p50", "ms", median(sp.byName["setup"]), len(sp.byName["setup"]), "span")
	l.add("jobs.iteration_ms.p50", "ms", median(sp.byName["iteration"]), len(sp.byName["iteration"]), "span, every iteration")
	l.add("jobs.finalize_ms.p50", "ms", median(sp.byName["finalize"]), len(sp.byName["finalize"]), "span")
	var logErr, imbalance []float64
	for _, s := range js {
		if f := s.final; f != nil && f.Prediction != nil && f.Prediction.Seconds > 0 && f.ActualSeconds > 0 {
			logErr = append(logErr, math.Abs(math.Log(f.ActualSeconds/f.Prediction.Seconds)))
		}
		if f := s.final; f != nil && f.ImbalanceRatio > 0 {
			imbalance = append(imbalance, f.ImbalanceRatio)
		}
	}
	l.add("jobs.predict_log_err.p50", "ln", orZero(median(logErr)), len(logErr), "|ln(actual/predicted)|; 0 = no prediction (streaming)")
	// The client's upload timer and the server's first span overlap
	// from the job's created time to the 202, so the upload counts up
	// to created. What is left uncovered is time neither a span nor a
	// client timer saw: SSE notification, connection set-up.
	var coverage, unaccounted []float64
	for i, s := range js {
		whole := s.downloaded.Sub(s.start)
		covered := ms(s.final.Created.Sub(s.start)) + sp.stageMS[i] + ms(s.downloaded.Sub(s.notified))
		if open {
			// Objects are fetched after the load: the job ends at the
			// server's finished time.
			whole = s.final.Finished.Sub(s.start)
			covered = ms(s.final.Created.Sub(s.start)) + sp.stageMS[i]
		}
		coverage = append(coverage, covered/ms(whole))
		unaccounted = append(unaccounted, ms(whole)-covered)
	}
	l.add("jobs.span_coverage", "ratio", median(coverage), len(coverage), "(upload until created + stage spans + download) / job time")
	l.add("jobs.unaccounted_ms.p50", "ms", median(unaccounted), len(unaccounted), "job time minus the covered parts")
	submitMS, err := b.directSubmit()
	if err != nil {
		return err
	}
	l.add("jobs.submit_ms.p50", "ms", median(submitMS), len(submitMS), "direct Service.Submit, WAL on")

	// sched
	l.add("sched.queue_depth.max", "count", float64(w.qdepthMax), 0, "sampled /v1/status every 25 ms")

	// store
	syncs := w.statAfter.WAL.Syncs - w.statBefore.WAL.Syncs
	l.add("store.fsyncs_per_job", "count", float64(syncs)/float64(n), n, "/v1/status WAL syncs delta")
	l.add("store.wal_bytes_per_job", "B", float64(w.walBytes)/float64(n), n, "sampled WAL growth")
	l.add("store.checkpoint_ms.p50", "ms", median(sp.byName["checkpoint"]), len(sp.byName["checkpoint"]), "span")
	ck, err := b.directCheckpoint()
	if err != nil {
		return err
	}
	l.add("store.write_checkpoint_ms", "ms", ms(ck), 1, "direct WAL.WriteCheckpoint of the result object")

	// dataio: direct calls on this workload's bytes.
	rd, err := perCall(func() error { _, err := dataio.Read(bytes.NewReader(b.data.batch)); return err })
	if err != nil {
		return err
	}
	l.add("dataio.read_ptycho_ms", "ms", ms(rd), 1, fmt.Sprintf("direct dataio.Read of the %d B upload", len(b.data.batch)))
	wr, err := perCall(func() error { return dataio.WriteObject(io.Discard, b.ref.slices) })
	if err != nil {
		return err
	}
	l.add("dataio.write_object_ms", "ms", ms(wr), 1, "direct dataio.WriteObject of a result-sized object")
	chunk := b.data.chunks[0]
	dc, err := perCall(func() error {
		_, _, _, err := dataio.DecodeChunk(chunk, b.data.prob.WindowN)
		return err
	})
	if err != nil {
		return err
	}
	l.add("dataio.decode_chunk_mb_s", "MB/s", float64(len(chunk))/1e6/dc.Seconds(), 1, fmt.Sprintf("direct DecodeChunk of a %d B chunk", len(chunk)))

	// kernel
	for _, nwin := range []int{32, 24} {
		us, err := lossGradUS(nwin, b.seed)
		if err != nil {
			return err
		}
		l.add(fmt.Sprintf("multislice.lossgrad_us.n%d", nwin), "us", us, 1, "direct Workspace.LossGrad per location")
	}
	for _, nwin := range []int{32, 24} {
		l.add(fmt.Sprintf("fft.flops_per_location.n%d", nwin), "flop", fftFlops(nwin, b.w.shape.Slices), 0, "computed: 4 FFTs per slice + 2, 5 N^2 log2 N^2 each")
	}
	l.add("multislice.bytes_per_location", "B", bytesPerLocation(b.w.shape.WindowN, b.w.shape.Slices), 0,
		fmt.Sprintf("computed at N=%d: FFT passes + elementwise sweeps over N^2 complex128", b.w.shape.WindowN))
	rate, err := b.serialRate()
	if err != nil {
		return err
	}
	l.add("solver.serial_locations_per_s", "1/s", rate, 1, "direct solver.Reconstruct, one thread, this dataset")

	// gradsync
	if g := b.ref.gd; g != nil {
		l.add("gradsync.bytes_sent", "B", float64(g.BytesSent), 1, "direct gradsync.Reconstruct, 2x2, exact")
		l.add("gradsync.messages", "count", float64(g.MessagesSent), 1, "direct gradsync.Reconstruct, 2x2, exact")
	} else {
		l.add("gradsync.bytes_sent", "B", 0, 0, "serial workload: no gradient exchange")
		l.add("gradsync.messages", "count", 0, 0, "serial workload: no gradient exchange")
	}
	if len(sp.compute) > 0 {
		l.add("gradsync.compute_ms", "ms", median(sp.compute), len(sp.compute), "rank spans: per job, mean over ranks")
		l.add("gradsync.comm_ms", "ms", median(sp.comm), len(sp.comm), "rank spans: per job, mean over ranks")
	}
	share := math.NaN()
	if sp.computeSum+sp.commSum > 0 {
		share = sp.commSum / (sp.computeSum + sp.commSum)
	}
	l.add("gradsync.comm_share", "ratio", orZero(share), len(sp.compute), "comm / (compute + comm) over rank spans; 0 = no ranks")
	l.add("gradsync.imbalance_ratio", "ratio", orZero(median(imbalance)), len(imbalance), "job imbalance_ratio (max/mean rank compute); 0 = no ranks")

	// transport
	var out0, out1, msg0, msg1 int64
	for _, g := range w.gridBefore.Workers {
		out0 += g.BytesOut
		msg0 += g.Messages
	}
	for _, g := range w.gridAfter.Workers {
		out1 += g.BytesOut
		msg1 += g.Messages
	}
	l.add("transport.hub_bytes_out_per_job", "B", float64(out1-out0)/float64(n), n, "/v1/grid delta; 0 = no grid")
	l.add("transport.messages_per_job", "count", float64(msg1-msg0)/float64(n), n, "/v1/grid delta; 0 = no grid")
	if b.w.gridRanks > 0 {
		l.add("gridworker.setup_ms.p50", "ms", median(sp.byName["setup"]), len(sp.byName["setup"]), "grid job setup span: session encode + dispatch")
	}

	// stream
	var folds, iters float64
	for _, s := range js {
		if s.final != nil {
			folds += float64(s.final.Folds)
			iters += float64(s.final.Iter)
		}
	}
	if b.w.streaming {
		l.add("stream.fold_ms.p50", "ms", median(sp.byName["fold"]), len(sp.byName["fold"]), "span")
	}
	l.add("stream.folds_per_job", "count", folds/float64(n), n, "job folds; 0 = batch job")
	l.add("stream.iterations_per_job", "count", iters/float64(n), n, "job iterations (open-stream + tail for streams)")
	l.add("stream.ingest_full", "count", float64(w.ingestFull), w.attempted, "429 ingest_full answers")

	// obs and process
	l.add("obs.spans_per_job", "count", float64(sp.spans)/float64(n), n, "span timeline length")
	l.add("ptychoserve.cpu_ms_per_job", "ms", ms(w.serveCPU)/float64(n), n, "/proc/<pid>/stat utime+stime delta")
	l.add("ptychoserve.rss_mb.max", "MB", rssMB, 1, "VmHWM at the end of the run")
	l.add("heap_kb_per_job", "KB", float64(w.heapDelta)/1024/float64(n), n, "traced window")
	return nil
}

// perCall times fn in batches big enough to take about 2 ms and
// returns the median time per call over nine batches.
func perCall(fn func() error) (time.Duration, error) {
	k := 1
	for {
		t := time.Now()
		for range k {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		if time.Since(t) >= 2*time.Millisecond || k >= 1<<20 {
			break
		}
		k *= 2
	}
	d, err := medianDuration(9, func() error {
		for range k {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	})
	return d / time.Duration(k), err
}

// lossGradUS times the per-location kernel at window n on a small
// generated problem.
func lossGradUS(n int, seed int64) (float64, error) {
	ds, err := generate(shape{ScanN: 4, WindowN: n, Slices: 1}, seed)
	if err != nil {
		return 0, err
	}
	prob := ds.prob
	ws := prob.NewWorkspace(prob.ImageBounds())
	slices := vacuum(prob)
	d, err := perCall(func() error {
		for i, loc := range prob.Pattern.Locations {
			ws.LossGrad(slices, loc.Window(n), prob.Meas[i])
		}
		return nil
	})
	return float64(d) / float64(time.Microsecond) / float64(prob.Pattern.N()), err
}

// fftFlops counts the FFT work of one location: 2 transforms per slice
// on the forward pass, 2 on the backward pass, and the detector-plane
// pair, at 5 N^2 log2 N^2 each.
func fftFlops(n, slices int) float64 {
	n2 := float64(n * n)
	return float64(4*slices+2) * 5 * n2 * math.Log2(n2)
}

// bytesPerLocation counts the bytes one location's kernel sweeps: each
// 2-D FFT reads and writes the N x N complex128 array once per
// dimension, and each slice adds six elementwise sweeps (window
// extract, transmission multiply, propagator multiply and their
// adjoints), plus the detector-plane amplitude read.
func bytesPerLocation(n, slices int) float64 {
	arr := float64(n*n) * 16
	ffts := float64(4*slices + 2)
	return ffts*2*2*arr + float64(6*slices)*2*arr + float64(n*n)*8
}

func (b *bench) serialRate() (float64, error) {
	const iters = 2
	prob := b.data.prob
	d, err := medianDuration(3, func() error {
		_, err := solver.Reconstruct(prob, vacuum(prob), solver.Options{StepSize: stepSize, Iterations: iters, Mode: solver.Batch})
		return err
	})
	return float64(prob.Pattern.N()*iters) / d.Seconds(), err
}

// directSubmit times Service.Submit on an in-process service with a
// durable WAL and the default queue policy (predictor, admission,
// fsync-before-ack), cancelling each
// job after it is timed so background runs stay short.
func (b *bench) directSubmit() ([]float64, error) {
	dir := filepath.Join(b.dir, "direct-submit")
	defer os.RemoveAll(dir)
	wal, err := store.OpenWAL(store.WALConfig{Dir: filepath.Join(dir, "state")})
	if err != nil {
		return nil, err
	}
	svc, err := jobs.NewService(jobs.Config{
		Workers: 1, QueueDepth: 64, SpoolDir: filepath.Join(dir, "ck"), Store: wal,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	defer func() {
		svc.Shutdown()
		wal.Close()
	}()
	r := b.w.request
	p := jobs.Params{
		Algorithm: r.Algorithm, Iterations: r.Iterations, MeshRows: r.MeshRows, MeshCols: r.MeshCols,
		CheckpointEvery: r.CheckpointEvery, Priority: r.Priority,
	}
	if len(b.w.tenants) > 0 {
		p.Tenant = b.w.tenants[0]
	}
	var out []float64
	for range 30 {
		t := time.Now()
		j, err := svc.Submit(b.data.prob, p)
		if err != nil {
			return nil, fmt.Errorf("direct submit: %w", err)
		}
		out = append(out, ms(time.Since(t)))
		svc.Cancel(j.ID())
	}
	return out, nil
}

// directCheckpoint times one durable checkpoint write (tmp + fsync +
// rename) of the reference object.
func (b *bench) directCheckpoint() (time.Duration, error) {
	dir := filepath.Join(b.dir, "direct-checkpoint")
	defer os.RemoveAll(dir)
	wal, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	i := 0
	return medianDuration(9, func() error {
		i++
		return wal.WriteCheckpoint(filepath.Join(dir, fmt.Sprintf("ck-%d.objck", i)), b.ref.slices)
	})
}
