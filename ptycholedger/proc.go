package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ptychopath/client"
)

// procs tracks every child process, so that any exit path can stop
// them all and wait for each.
var procs struct {
	sync.Mutex
	live []*exec.Cmd
}

func spawn(bin string, args []string, logPath string) (*exec.Cmd, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	logf.Close() // the child holds its own descriptor
	procs.Lock()
	procs.live = append(procs.live, cmd)
	procs.Unlock()
	return cmd, nil
}

// stopProc asks cmd to exit with SIGTERM (ptychoserve drains
// gracefully), kills it after grace, and waits for it.
func stopProc(cmd *exec.Cmd, grace time.Duration) {
	procs.Lock()
	for i, c := range procs.live {
		if c == cmd {
			procs.live = append(procs.live[:i], procs.live[i+1:]...)
			break
		}
	}
	procs.Unlock()
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(grace):
		cmd.Process.Kill()
		<-done
	}
}

// stopAll stops every child still running.
func stopAll() {
	procs.Lock()
	live := append([]*exec.Cmd(nil), procs.live...)
	procs.Unlock()
	for _, c := range live {
		stopProc(c, 5*time.Second)
	}
}

// freeAddrs picks n distinct free loopback ports: it holds every
// listener until all n are bound, so no two can be the same port, then
// releases them for the server to bind.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var addrs []string
	for range n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// serverOpts describes one ptychoserve deployment.
type serverOpts struct {
	binDir    string
	dir       string   // fresh directory for state, spool and logs
	extra     []string // workload-specific flags
	gridRanks int      // > 0 starts one ptychoworker with this many ranks
}

// server is a running ptychoserve (and its grid worker, if any).
type server struct {
	srv, worker *exec.Cmd
	base        string
	debugAddr   string
	mon         *client.Client // one-connection client for status reads
	hc          *http.Client
}

func startServer(ctx context.Context, o serverOpts) (*server, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(3)
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addrs[0], "-debug-addr", addrs[1],
		"-workers", "2", "-state-dir", filepath.Join(o.dir, "state"),
	}
	if o.gridRanks > 0 {
		args = append(args, "-grid", addrs[2])
	}
	args = append(args, o.extra...)
	cmd, err := spawn(filepath.Join(o.binDir, "ptychoserve"), args, filepath.Join(o.dir, "ptychoserve.log"))
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	s := &server{srv: cmd, base: "http://" + addrs[0], debugAddr: addrs[1], hc: hc}
	if s.mon, err = client.New(s.base, client.WithRetry(0, 0), client.WithHTTPClient(hc)); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.waitReady(ctx, func(ctx context.Context) (bool, error) {
		return s.mon.Healthz(ctx) == nil, nil
	}); err != nil {
		s.stop()
		return nil, fmt.Errorf("ptychoserve never became healthy: %w (log: %s)", err, filepath.Join(o.dir, "ptychoserve.log"))
	}
	if o.gridRanks == 0 {
		return s, nil
	}
	s.worker, err = spawn(filepath.Join(o.binDir, "ptychoworker"),
		[]string{"-connect", addrs[2], "-ranks", strconv.Itoa(o.gridRanks)},
		filepath.Join(o.dir, "ptychoworker.log"))
	if err != nil {
		s.stop()
		return nil, err
	}
	if err := s.waitReady(ctx, func(ctx context.Context) (bool, error) {
		g, err := s.mon.Grid(ctx)
		return err == nil && g.Idle >= o.gridRanks, nil
	}); err != nil {
		s.stop()
		return nil, fmt.Errorf("grid workers never registered: %w", err)
	}
	return s, nil
}

// waitReady polls ready every 5 ms until it holds, a child exits, or
// 60 s pass.
func (s *server) waitReady(ctx context.Context, ready func(context.Context) (bool, error)) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		rctx, cancel := context.WithTimeout(ctx, time.Second)
		ok, err := ready(rctx)
		cancel()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		for _, c := range []*exec.Cmd{s.srv, s.worker} {
			if c != nil && exited(c) {
				return fmt.Errorf("process %d exited", c.Process.Pid)
			}
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exited reports whether the child is gone (a zombie counts).
func exited(c *exec.Cmd) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
	if err != nil {
		return true
	}
	f := statFields(b)
	return len(f) > 0 && (f[0] == "Z" || f[0] == "X")
}

func (s *server) stop() {
	if s.worker != nil {
		stopProc(s.worker, 5*time.Second)
	}
	stopProc(s.srv, 15*time.Second)
	s.hc.CloseIdleConnections()
}

// pids lists the program's processes: ptychoserve, then the worker.
func (s *server) pids() []int {
	p := []int{s.srv.Process.Pid}
	if s.worker != nil {
		p = append(p, s.worker.Process.Pid)
	}
	return p
}

// statFields returns the fields of /proc/<pid>/stat after the command
// name, starting with the state (field 3).
func statFields(b []byte) []string {
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return nil
	}
	return strings.Fields(string(b[i+1:]))
}

// clkTck is the kernel's USER_HZ, fixed at 100 on Linux.
const clkTck = 100

// cpuTime returns the user+system CPU time a process has used.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	f := statFields(b)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// cpuTotal sums cpuTime over pids.
func cpuTotal(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, p := range pids {
		d, err := cpuTime(p)
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSSMB reads a process's high-water resident set (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatusKB(pid, "VmHWM:")
	return float64(v) / 1024, err
}

func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// liveHeap forces a GC in ptychoserve through its pprof listener and
// returns the live heap it reports (runtime.MemStats.HeapAlloc).
func (s *server) liveHeap(ctx context.Context) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+s.debugAddr+"/debug/pprof/heap?debug=1&gc=1", nil)
	if err != nil {
		return 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			io.Copy(io.Discard, resp.Body)
			return strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}

// hostTicks reads the machine-wide CPU ticks from /proc/stat: those
// the hypervisor gave to other guests while this one wanted to run
// (steal), and all of them.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
