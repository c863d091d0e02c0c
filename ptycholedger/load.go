package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ptychopath/client"
)

// loadConns bounds the load generator's connections (and sender
// goroutines) to the runner's core count.
const loadConns = 2

// jobSample is one job as the client saw it. Which timestamps are set
// depends on the workload: start/accepted for every submission,
// due for open-loop arrivals, eof for streaming sessions.
type jobSample struct {
	id         string
	tenant     int
	due        time.Time // open loop: when the arrival was scheduled
	start      time.Time // the submit request was sent
	accepted   time.Time // the 202 arrived
	eof        time.Time // stream: the EOF request was sent
	notified   time.Time // the SSE feed reported the terminal state
	downloaded time.Time // the object was read in full
	evals      int       // location-gradient evaluations the job ran
	// Filled from the server after the job: its final summary (with
	// Finished) and, in a traced window, its span timeline.
	final *client.Job
	spans []client.TraceSpan
}

// window is what one measured stretch of load produced.
type window struct {
	traced   bool
	begin    time.Time
	end      time.Time
	jobs     []*jobSample
	appendMS []float64 // stream: one per frame chunk
	lateMS   []float64 // how late the generator sent each request
	steps    []*step   // burst-tiny ladder

	attempted, refused, failed, wrong, ingestFull int
	refusedBy                                     map[string]int // refusals by problem code
	firstErr                                      error

	cpu, serveCPU time.Duration // over the window: all program processes, ptychoserve alone
	stealPct      float64       // share of the machine's CPU time stolen by the hypervisor
	heapDelta     int64         // live heap after the window minus before it
	statBefore    *client.Status
	statAfter     *client.Status
	gridBefore    *client.GridStatus
	gridAfter     *client.GridStatus
	qdepthMax     int
	walBytes      int64 // sampled growth of the WAL, across compactions
}

// step is one rate of the burst-tiny ladder.
type step struct {
	rate    float64
	jobs    []*jobSample // accepted arrivals
	sent    int
	refused int
	cpu     time.Duration
	drain   time.Duration // from the last arrival's answer until the backlog was empty
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// classify books a failed request: a 429 is a refusal (load shed by
// admission control), anything else a failure.
func (w *window) classify(err error) (refused bool) {
	var e *client.Error
	if errors.As(err, &e) && e.Status == http.StatusTooManyRequests {
		w.refused++
		if w.refusedBy == nil {
			w.refusedBy = map[string]int{}
		}
		w.refusedBy[e.Code]++
		if e.Code == client.CodeIngestFull {
			w.ingestFull++
		}
		return true
	}
	w.fail(err)
	return false
}

// newLoadClients returns one SDK client per API key (one keyless
// client without keys), all sharing a transport capped at loadConns
// connections, with automatic 429 retries off.
func newLoadClients(base string, keys ...string) ([]*client.Client, error) {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns}}
	if len(keys) == 0 {
		keys = []string{""}
	}
	var cs []*client.Client
	for _, k := range keys {
		opts := []client.Option{client.WithRetry(0, 0), client.WithHTTPClient(hc)}
		if k != "" {
			opts = append(opts, client.WithAPIKey(k))
		}
		c, err := client.New(base, opts...)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// follower reads a job's SSE feed in the background until the job
// reaches a terminal state. The first event is the job summary, so a
// job that finished before the feed opened is seen at once.
type follower struct {
	es    *client.EventStream
	done  chan struct{}
	state string
	err   error
	at    time.Time // when the terminal state arrived
	// evals sums the active set over the iteration events: the
	// location-gradient evaluations of a stream whose active set grows
	// with every fold.
	evals int
}

func follow(ctx context.Context, es *client.EventStream) *follower {
	f := &follower{es: es, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer es.Close()
		f.state, f.err = f.read(ctx, es)
		f.at = time.Now()
	}()
	return f
}

func (f *follower) read(ctx context.Context, es *client.EventStream) (string, error) {
	active := 0
	for {
		ev, err := es.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return "", errors.New("event feed ended before a terminal state")
			}
			return "", err
		}
		state := ev.State
		switch ev.Type {
		case "fold":
			active = ev.Frames
			continue
		case "iteration":
			f.evals += active
			continue
		case "info":
			if ev.Info == nil {
				continue
			}
			state = ev.Info.State
		case "state":
		default:
			continue
		}
		switch state {
		case client.StateDone, client.StateFailed, client.StateCancelled:
			return state, nil
		}
		if ctx.Err() != nil {
			return "", ctx.Err()
		}
	}
}

// wait blocks until the follower has seen the job end, or ctx ends
// (the follower then ends with the feed, which shares ctx).
func (f *follower) wait(ctx context.Context) {
	select {
	case <-f.done:
	case <-ctx.Done():
		<-f.done
	}
}

// stop abandons the feed of a job that will not be finished and waits
// for the follower to exit.
func (f *follower) stop() {
	f.es.Close()
	<-f.done
}

func download(ctx context.Context, c *client.Client, id string) ([]byte, error) {
	rc, _, err := c.Object(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("downloading %s: %w", id, err)
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// finishJob waits for the job's terminal state on its feed, downloads
// and checks its object. It returns errWrong (wrapped) for a wrong
// output.
func (b *bench) finishJob(ctx context.Context, c *client.Client, f *follower, s *jobSample) error {
	f.wait(ctx)
	if f.err != nil {
		return fmt.Errorf("waiting for %s: %w", s.id, f.err)
	}
	s.notified = f.at
	if f.state != client.StateDone {
		return fmt.Errorf("job %s ended %s", s.id, f.state)
	}
	obj, err := download(ctx, c, s.id)
	if err != nil {
		return err
	}
	s.downloaded = time.Now()
	if err := checkObject(obj, b.ref, b.data.prob); err != nil {
		return fmt.Errorf("%w: job %s: %v", errWrong, s.id, err)
	}
	return nil
}

var errWrong = errors.New("wrong output")

// book records the outcome of one job operation in w.
func (w *window) book(s *jobSample, err error) {
	w.attempted++
	switch {
	case err == nil:
		w.jobs = append(w.jobs, s)
	case errors.Is(err, errWrong):
		w.wrong++
		if w.firstErr == nil {
			w.firstErr = err
		}
	default:
		w.classify(err)
	}
}

// reconJob runs one batch job end to end: multipart upload, SSE wait,
// object download.
func (b *bench) reconJob(ctx context.Context, c *client.Client) (*jobSample, error) {
	s := &jobSample{start: time.Now()}
	job, err := c.Submit(ctx, b.w.request, bytes.NewReader(b.data.batch))
	if err != nil {
		return s, err
	}
	s.accepted = time.Now()
	s.id = job.ID
	es, err := c.Events(ctx, job.ID)
	if err != nil {
		return s, err
	}
	s.evals = b.data.prob.Pattern.N() * b.w.request.Iterations
	return s, b.finishJob(ctx, c, follow(ctx, es), s)
}

// streamSession opens a streaming job, feeds every chunk on the fixed
// frame-rate schedule, closes the stream and collects the result.
func (b *bench) streamSession(ctx context.Context, c *client.Client, w *window) (*jobSample, error) {
	s := &jobSample{start: time.Now()}
	job, err := c.SubmitStreaming(ctx, b.w.request, bytes.NewReader(b.data.opening))
	if err != nil {
		return s, err
	}
	s.accepted = time.Now()
	s.id = job.ID
	es, err := c.Events(ctx, job.ID)
	if err != nil {
		return s, err
	}
	// No frame has been sent, so the feed sees every fold and iteration.
	f := follow(ctx, es)
	period := time.Duration(float64(chunkFrames) / b.w.frameRate * float64(time.Second))
	for k, chunk := range b.data.chunks {
		due := s.accepted.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		t := time.Now()
		if _, err := c.AppendFrames(ctx, job.ID, chunk); err != nil {
			f.stop()
			return s, fmt.Errorf("appending chunk %d: %w", k, err)
		}
		if w != nil {
			w.appendMS = append(w.appendMS, ms(time.Since(t)))
			w.lateMS = append(w.lateMS, ms(t.Sub(due)))
		}
	}
	time.Sleep(time.Until(s.accepted.Add(time.Duration(len(b.data.chunks)) * period)))
	s.eof = time.Now()
	if _, err := c.CloseStream(ctx, job.ID); err != nil {
		f.stop()
		return s, fmt.Errorf("closing stream: %w", err)
	}
	err = b.finishJob(ctx, c, f, s)
	s.evals = f.evals
	return s, err
}

// closedLoop runs one client back to back until the window ends or an
// operation fails (the run has failed then): the next job is submitted
// only after the previous one's object is in.
func (b *bench) closedLoop(ctx context.Context, w *window, until time.Time) {
	for time.Now().Before(until) && ctx.Err() == nil {
		var s *jobSample
		var err error
		if b.w.streaming {
			s, err = b.streamSession(ctx, b.clients[0], w)
		} else {
			s, err = b.reconJob(ctx, b.clients[0])
		}
		w.book(s, err)
		if w.failed+w.wrong > 0 {
			return // the run has failed; a refusal alone does not stop it
		}
		if err == nil && w.traced {
			b.fetchTrace(ctx, w, s)
		}
	}
}

// fetchTrace attaches the job's span timeline and final summary.
func (b *bench) fetchTrace(ctx context.Context, w *window, s *jobSample) {
	tr, err := b.srv.mon.Trace(ctx, s.id)
	if err != nil {
		w.fail(fmt.Errorf("trace of %s: %w", s.id, err))
		return
	}
	s.final = &tr.Job
	s.spans = tr.Spans
}

// ladder drives burst-tiny: open-loop arrivals at fixed intervals, one
// rate after another, draining the backlog between rates. Each step
// gets a share of the window.
func (b *bench) ladder(ctx context.Context, w *window, dur time.Duration) error {
	for _, st := range b.w.ladder {
		stepDur := time.Duration(st.share * float64(dur))
		s := &step{rate: st.rate}
		cpu0, err := cpuTotal(b.srv.pids())
		if err != nil {
			return err
		}
		b.openLoop(ctx, w, s, int(st.rate*stepDur.Seconds()))
		sent := time.Now()
		if err := b.drain(ctx); err != nil {
			return err
		}
		s.drain = time.Since(sent)
		cpu1, err := cpuTotal(b.srv.pids())
		if err != nil {
			return err
		}
		s.cpu = cpu1 - cpu0
		w.steps = append(w.steps, s)
	}
	return nil
}

// openLoop sends n arrivals at s.rate from loadConns sender
// goroutines. Each arrival is timed from when it was due, so a sender
// that falls behind charges the delay to the arrivals it makes wait.
func (b *bench) openLoop(ctx context.Context, w *window, s *step, n int) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / s.rate)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for range loadConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				js := &jobSample{
					tenant: i % len(b.clients), due: start.Add(time.Duration(i) * interval),
					evals: b.data.prob.Pattern.N() * b.w.request.Iterations,
				}
				time.Sleep(time.Until(js.due))
				js.start = time.Now()
				job, err := b.clients[js.tenant].Submit(ctx, b.w.request, bytes.NewReader(b.data.batch))
				js.accepted = time.Now()
				mu.Lock()
				w.attempted++
				s.sent++
				w.lateMS = append(w.lateMS, ms(js.start.Sub(js.due)))
				if err != nil {
					if w.classify(err) {
						s.refused++
					}
				} else {
					js.id = job.ID
					s.jobs = append(s.jobs, js)
					w.jobs = append(w.jobs, js)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// drain waits until no job is queued or running.
func (b *bench) drain(ctx context.Context) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, err := b.srv.mon.Status(ctx)
		if err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if st.Jobs[client.StateQueued]+st.Jobs[client.StateRunning] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("backlog did not drain within 120s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settleOpenLoop fetches every accepted arrival's final summary (for
// its server-side finished time) and trace, then downloads and checks
// its object. It runs after the load, outside every timing.
func (b *bench) settleOpenLoop(ctx context.Context, w *window) error {
	finals := map[string]*client.Job{}
	for j, err := range b.srv.mon.Jobs(ctx, client.ListOptions{Limit: 1000}) {
		if err != nil {
			return fmt.Errorf("listing jobs: %w", err)
		}
		finals[j.ID] = &j
	}
	var ok []*jobSample
	for _, s := range w.jobs {
		s.final = finals[s.id]
		if s.final == nil || s.final.State != client.StateDone {
			w.fail(fmt.Errorf("job %s did not finish done", s.id))
			continue
		}
		if w.traced {
			b.fetchTrace(ctx, w, s)
		}
		s.notified = time.Now()
		obj, err := download(ctx, b.srv.mon, s.id)
		if err != nil {
			w.fail(err)
			continue
		}
		s.downloaded = time.Now()
		if err := checkObject(obj, b.ref, b.data.prob); err != nil {
			w.wrong++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("job %s: %w", s.id, err)
			}
			continue
		}
		ok = append(ok, s)
	}
	w.jobs = ok
	for _, st := range w.steps {
		st.jobs = keep(st.jobs, ok)
	}
	return nil
}

// keep returns the members of xs that are also in set.
func keep(xs, set []*jobSample) []*jobSample {
	in := make(map[*jobSample]bool, len(set))
	for _, s := range set {
		in[s] = true
	}
	var out []*jobSample
	for _, x := range xs {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

// sampleStatus polls /v1/status until stop closes, keeping the
// deepest queue seen and the WAL's growth (a compaction shrinks the
// log, so growth is summed between samples).
func (b *bench) sampleStatus(ctx context.Context, w *window, stop <-chan struct{}) {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	var last int64 = -1
	for {
		if st, err := b.srv.mon.Status(ctx); err == nil {
			w.qdepthMax = max(w.qdepthMax, st.QueueDepth)
			if st.WAL != nil {
				if last >= 0 {
					if st.WAL.Bytes >= last {
						w.walBytes += st.WAL.Bytes - last
					} else {
						w.walBytes += st.WAL.Bytes
					}
				}
				last = st.WAL.Bytes
			}
		}
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
