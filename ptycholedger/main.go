// Command ptycholedger is ptychopath's end-to-end, layer-by-layer
// benchmark. It drives a real ptychoserve (and, for grid jobs, a
// ptychoworker) built from the tree under test, through the public
// client SDK over loopback, on one of four seeded workloads; checks
// every downloaded object; and prints every metric with its unit and
// sample count, ending with one JSON line.
//
//	ptycholedger -workload recon-local -seed 1 -seconds 10 -trace 0 -bin DIR -work DIR
//
// -trace 0 measures the end-to-end metrics with nothing but the load
// touching the server. -trace 1 runs the same load twice, half the
// time each: untraced, then traced (per-job span timelines, /v1/status
// sampling, /v1/grid counters), and prints the per-layer metrics from
// the traced half, direct timings of each layer's public functions on
// the workload's inputs, and the traced-minus-untraced difference of
// the end-to-end metrics as the tracing overhead.
//
// run.sh builds the binaries and this command; see README.md for the
// metric definitions and the layer map.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ptychopath/client"
)

// ladderStep is one rate of an open-loop ladder and its share of the
// measured window.
type ladderStep struct {
	rate, share float64
}

// workload is one named traffic mix.
type workload struct {
	name    string
	shape   shape
	request client.SubmitRequest
	// streaming workloads open a PTYCHS session and feed chunks at
	// frameRate frames per second.
	streaming bool
	frameRate float64
	gridRanks int          // > 0 runs jobs on a ptychoworker with this many ranks
	flags     []string     // extra ptychoserve flags
	tenants   []string     // API keys the load alternates between
	ladder    []ladderStep // non-empty: open loop instead of one closed-loop client
}

var reconRequest = client.SubmitRequest{
	Algorithm: "gd", Iterations: 8, MeshRows: 2, MeshCols: 2, CheckpointEvery: 4,
}

var workloads = []*workload{
	{
		name:    "recon-local",
		shape:   shape{ScanN: 16, WindowN: 32, Slices: 1},
		request: reconRequest,
	},
	{
		name:      "recon-grid",
		shape:     shape{ScanN: 16, WindowN: 32, Slices: 1},
		request:   withGrid(reconRequest),
		gridRanks: 4,
	},
	{
		name:      "stream-feed",
		shape:     shape{ScanN: 12, WindowN: 24, Slices: 1},
		request:   client.SubmitRequest{Algorithm: "serial", Iterations: 8},
		streaming: true,
		frameRate: 500,
	},
	{
		name:    "burst-tiny",
		shape:   shape{ScanN: 4, WindowN: 16, Slices: 1},
		request: client.SubmitRequest{Algorithm: "serial", Iterations: 5, Priority: "bulk"},
		flags:   []string{"-sched", "wfq", "-tenant", "alpha:3", "-tenant", "beta:1"},
		tenants: []string{"alpha", "beta"},
		ladder:  []ladderStep{{100, 0.5}, {200, 0.5 / 3}, {300, 0.5 / 3}, {400, 0.5 / 3}},
	},
}

func withGrid(r client.SubmitRequest) client.SubmitRequest {
	r.Grid = true
	return r
}

// setups is how many times each run sets the deployment up; setup_s
// is their median.
const setups = 5

// bench is the state of one run.
type bench struct {
	w       *workload
	seed    int64
	binDir  string
	dir     string
	data    *dataset
	ref     *reference
	srv     *server
	clients []*client.Client
}

func main() {
	name := flag.String("workload", "", "workload: recon-local, recon-grid, stream-feed or burst-tiny")
	seed := flag.Int64("seed", 1, "input seed (phantom)")
	seconds := flag.Float64("seconds", 10, "measured load time")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	binDir := flag.String("bin", "", "directory holding ptychoserve and ptychoworker")
	work := flag.String("work", "", "scratch directory for server state (removed at exit)")
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *binDir, *work)
	cancel()
	stopAll()
	if err != nil && *work != "" {
		printLogTails(*work)
	}
	if *work != "" {
		os.RemoveAll(*work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptycholedger:", err)
		os.Exit(1)
	}
}

// printLogTails copies the last lines of every server and worker log
// under work to stderr, so that a failed run shows what the program
// said before its state directory is removed.
func printLogTails(work string) {
	const keep = 8
	filepath.WalkDir(work, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".log" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil || len(b) == 0 {
			return nil
		}
		lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
		rel, _ := filepath.Rel(work, path)
		fmt.Fprintf(os.Stderr, "== last lines of %s\n%s\n", rel, strings.Join(lines[max(0, len(lines)-keep):], "\n"))
		return nil
	})
}

func run(ctx context.Context, name string, seed int64, dur time.Duration, traced bool, binDir, work string) error {
	var w *workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if binDir == "" || work == "" {
		return errors.New("-bin and -work are required")
	}
	for _, b := range []string{"ptychoserve", "ptychoworker"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			return fmt.Errorf("missing program binary: %w", err)
		}
	}
	b := &bench{w: w, seed: seed, binDir: binDir, dir: work}

	// Inputs and the reference outputs, outside every timing.
	var err error
	if b.data, err = generate(w.shape, seed); err != nil {
		return err
	}
	switch {
	case w.streaming:
		b.ref = referenceStream(b.data.prob)
	case w.request.Algorithm == "gd":
		b.ref, err = referenceGD(b.data.prob, w.request.Iterations)
	default:
		b.ref, err = referenceSerial(b.data.prob, w.request.Iterations)
	}
	if err != nil {
		return err
	}
	fmt.Printf("ptycholedger: workload %s, seed %d, %d locations, window %d, %d B batch upload, %d chunks\n",
		w.name, seed, b.data.prob.Pattern.N(), w.shape.WindowN, len(b.data.batch), len(b.data.chunks))

	setupS, err := b.setUp(ctx)
	if err != nil {
		return err
	}

	var e2e, layers ledger
	var untracedWin, tracedWin *window
	if traced {
		if untracedWin, err = b.measure(ctx, dur/2, false); err != nil {
			return err
		}
		if tracedWin, err = b.measure(ctx, dur/2, true); err != nil {
			return err
		}
	} else if untracedWin, err = b.measure(ctx, dur, false); err != nil {
		return err
	}
	rssMB, err := peakRSSMB(b.srv.srv.Process.Pid)
	if err != nil {
		return err
	}
	b.srv.stop()

	e2e.add("setup_s", "s", median(setupS), len(setupS), "spawn -> /healthz -> grid registered -> warm-up job downloaded")
	b.endToEnd(&e2e, untracedWin)
	e2e.print(fmt.Sprintf("end-to-end (%s, untraced, %s)", w.name, untracedWin.end.Sub(untracedWin.begin).Round(time.Millisecond)))
	wins := []*window{untracedWin}
	var jsonMetrics []metric
	if traced {
		var te ledger
		b.endToEnd(&te, tracedWin)
		te.print(fmt.Sprintf("end-to-end (%s, traced, %s)", w.name, tracedWin.end.Sub(tracedWin.begin).Round(time.Millisecond)))
		printOverhead(&e2e, &te)
		if err := b.layerMetrics(&layers, tracedWin, rssMB); err != nil {
			return err
		}
		layers.print(fmt.Sprintf("per-layer (%s, traced)", w.name))
		wins = append(wins, tracedWin)
		jsonMetrics = pick(&layers, perLayerNames)
	} else {
		jsonMetrics = pick(&e2e, endToEndNames)
	}
	return emit(wins, jsonMetrics)
}

// setUp deploys the workload's server setups times, each time from
// process spawn to a downloaded warm-up job, keeps the last deployment
// and returns each setup's seconds.
func (b *bench) setUp(ctx context.Context) ([]float64, error) {
	var secs []float64
	for i := range setups {
		t := time.Now()
		srv, err := startServer(ctx, serverOpts{
			binDir: b.binDir, dir: filepath.Join(b.dir, fmt.Sprintf("deploy-%d", i)),
			extra: b.w.flags, gridRanks: b.w.gridRanks,
		})
		if err != nil {
			return nil, err
		}
		b.srv = srv
		cs, err := newLoadClients(srv.base, b.w.tenants...)
		if err != nil {
			return nil, err
		}
		b.clients = cs
		warm := &window{}
		if b.w.streaming {
			s, err := b.streamSession(ctx, cs[0], nil)
			warm.book(s, err)
		} else {
			s, err := b.reconJob(ctx, cs[0])
			warm.book(s, err)
		}
		if warm.firstErr != nil || len(warm.jobs) != 1 {
			return nil, fmt.Errorf("warm-up job: %v", warm.firstErr)
		}
		secs = append(secs, time.Since(t).Seconds())
		if i < setups-1 {
			srv.stop()
		}
	}
	return secs, nil
}

// measure runs the workload's load for dur on the kept deployment.
func (b *bench) measure(ctx context.Context, dur time.Duration, traced bool) (*window, error) {
	w := &window{traced: traced}
	heap0, err := b.srv.liveHeap(ctx)
	if err != nil {
		return nil, fmt.Errorf("heap before the window: %w", err)
	}
	if w.statBefore, err = b.srv.mon.Status(ctx); err != nil {
		return nil, err
	}
	if w.gridBefore, err = b.srv.mon.Grid(ctx); err != nil {
		return nil, err
	}
	cpu0, err := cpuTotal(b.srv.pids())
	if err != nil {
		return nil, err
	}
	serve0, err := cpuTime(b.srv.srv.Process.Pid)
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostTicks()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	if traced {
		go func() {
			b.sampleStatus(ctx, w, stop)
			close(sampled)
		}()
	} else {
		close(sampled)
	}
	w.begin = time.Now()
	if len(b.w.ladder) > 0 {
		err = b.ladder(ctx, w, dur)
	} else {
		b.closedLoop(ctx, w, w.begin.Add(dur))
	}
	w.end = time.Now()
	close(stop)
	<-sampled
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuTotal(b.srv.pids())
	if err != nil {
		return nil, err
	}
	serve1, err := cpuTime(b.srv.srv.Process.Pid)
	if err != nil {
		return nil, err
	}
	steal1, total1, err := hostTicks()
	if err != nil {
		return nil, err
	}
	w.cpu, w.serveCPU = cpu1-cpu0, serve1-serve0
	w.stealPct = 100 * float64(steal1-steal0) / float64(max(total1-total0, 1))
	if w.statAfter, err = b.srv.mon.Status(ctx); err != nil {
		return nil, err
	}
	if w.gridAfter, err = b.srv.mon.Grid(ctx); err != nil {
		return nil, err
	}
	if len(b.w.ladder) > 0 {
		if err := b.settleOpenLoop(ctx, w); err != nil {
			return nil, err
		}
	}
	heap1, err := b.srv.liveHeap(ctx)
	if err != nil {
		return nil, fmt.Errorf("heap after the window: %w", err)
	}
	w.heapDelta = heap1 - heap0
	if len(w.jobs) == 0 {
		return nil, fmt.Errorf("no job completed in the window (first error: %v)", w.firstErr)
	}
	return w, nil
}

// The metric names the final JSON line carries, as BENCHMARK.json
// declares them.
var endToEndNames = []string{"setup_s", "job_ms.p50", "cpu_us_per_location"}

var perLayerNames = []string{
	"httpapi.upload_ms.p50", "httpapi.object_ms.p50", "httpapi.refused",
	"dataio.read_ptycho_ms", "dataio.write_object_ms", "dataio.decode_chunk_mb_s",
	"jobs.queue_wait_ms.p50", "jobs.setup_ms.p50", "jobs.iteration_ms.p50", "jobs.finalize_ms.p50",
	"jobs.submit_ms.p50", "jobs.predict_log_err.p50", "jobs.span_coverage",
	"sched.queue_depth.max",
	"store.fsyncs_per_job", "store.wal_bytes_per_job", "store.checkpoint_ms.p50", "store.write_checkpoint_ms",
	"multislice.lossgrad_us.n32", "multislice.lossgrad_us.n24", "solver.serial_locations_per_s",
	"gradsync.bytes_sent", "gradsync.messages", "gradsync.comm_share", "gradsync.imbalance_ratio",
	"transport.hub_bytes_out_per_job", "transport.messages_per_job",
	"stream.folds_per_job", "stream.iterations_per_job", "stream.ingest_full",
	"obs.spans_per_job", "ptychoserve.cpu_ms_per_job", "ptychoserve.rss_mb.max",
}

func pick(l *ledger, names []string) []metric {
	var out []metric
	for _, n := range names {
		m, ok := l.get(n)
		if !ok || math.IsNaN(m.Value) {
			m = metric{Name: n, Value: math.NaN()}
		}
		out = append(out, m)
	}
	return out
}

// printOverhead prints traced minus untraced for each end-to-end
// metric both windows measured.
func printOverhead(untraced, traced *ledger) {
	fmt.Println("== tracing overhead (traced half minus untraced half)")
	for _, m := range traced.ms {
		u, ok := untraced.get(m.Name)
		if !ok || math.IsNaN(u.Value) || math.IsNaN(m.Value) || u.Value == 0 {
			continue
		}
		fmt.Printf("  %-36s %+14.6g %-7s %+7.1f%%\n", m.Name, m.Value-u.Value, m.Unit, 100*(m.Value-u.Value)/u.Value)
	}
}

// emit prints the final JSON line. Refusals (HTTP 429 from admission
// control) are load shed by design and are not failures; errors and
// wrong outputs are, and any of them fails the run.
func emit(wins []*window, ms []metric) error {
	var attempted, failed, wrong int
	var firstErr error
	for _, w := range wins {
		attempted += w.attempted
		failed += w.failed + w.wrong
		wrong += w.wrong
		if firstErr == nil {
			firstErr = w.firstErr
		}
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: wrong == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if !out.Correct {
		fmt.Println(string(line))
		return fmt.Errorf("%d failed operations, %d wrong outputs; first: %v", failed, wrong, firstErr)
	}
	fmt.Println(string(line))
	return nil
}
