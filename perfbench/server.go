package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one `dews -serve` child process under test.
type server struct {
	bin, addr, logDir, graphDir string
	seed                        int64
	stderrPath                  string
	cmd                         *exec.Cmd
	exited                      chan struct{}
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// setupRuns fresh starts give a run's setup_s median; restartRuns
// SIGKILL restarts give its recover_s median.
const (
	setupRuns   = 5
	restartRuns = 3
)

// startupYears/startupTrain size the scenario `dews -serve` simulates
// before it starts serving; it is small so set-up is dominated by
// opening the durable state, not by the simulation.
const (
	startupYears = 2
	startupTrain = 1
)

// startup is one server start: the wall time from spawn until /healthz
// answered 200, and the CPU time the server had used by then.
type startup struct {
	wall, cpu time.Duration
}

// start launches the server on its directories and waits until /healthz
// answers 200.
func (s *server) start() (startup, error) {
	errf, err := os.OpenFile(s.stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return startup{}, err
	}
	defer errf.Close()
	s.cmd = exec.Command(s.bin,
		"-seed", strconv.FormatInt(s.seed, 10),
		"-years", strconv.Itoa(startupYears), "-train", strconv.Itoa(startupTrain),
		"-log-dir", s.logDir, "-graph-dir", s.graphDir,
		"-serve", s.addr)
	s.cmd.Stderr = errf
	// The server must not outlive a benchmark that is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return startup{}, err
	}
	s.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(s.cmd, s.exited)
	probe := &http.Client{Timeout: 500 * time.Millisecond}
	deadline := t0.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return startup{}, fmt.Errorf("server exited during start-up: %s", s.stderrTail())
		default:
		}
		resp, err := probe.Get("http://" + s.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				wall := time.Since(t0)
				u, err := readProc(s.cmd.Process.Pid)
				return startup{wall, u.CPU}, err
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return startup{}, errors.New("server not healthy within 60s")
}

// kill sends SIGKILL and waits for the process to be gone.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.cmd = nil
}

// stop asks for a clean shutdown (SIGTERM), escalating to SIGKILL after
// ten seconds, and waits for the process to be gone.
func (s *server) stop() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.exited
	}
	s.cmd = nil
}

func (s *server) stderrTail() string {
	b, _ := os.ReadFile(s.stderrPath)
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// startServer makes the server's directories under dir (copying seed
// directories into them when given) and starts it there. It returns the
// running server and its set-up time.
func startServer(bin, dir string, seed int64, seedLog, seedGraph string) (*server, startup, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, startup{}, err
	}
	s := &server{
		bin: bin, addr: addr, seed: seed,
		logDir:     filepath.Join(dir, "log"),
		graphDir:   filepath.Join(dir, "graph"),
		stderrPath: filepath.Join(dir, "server.stderr"),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, startup{}, err
	}
	for _, c := range [][2]string{{seedLog, s.logDir}, {seedGraph, s.graphDir}} {
		if c[0] == "" {
			continue
		}
		if err := copyDir(c[0], c[1]); err != nil {
			return nil, startup{}, err
		}
	}
	st, err := s.start()
	if err != nil {
		return nil, startup{}, err
	}
	return s, st, nil
}

// setupServer starts a fresh server `times` times on fresh copies of the
// seed directories, keeps the last one running, and returns it with every
// start's figures.
func setupServer(bin, work string, seed int64, seedLog, seedGraph string, times int) (*server, []startup, error) {
	var setups []startup
	var srv *server
	for i := 0; i < times; i++ {
		s, st, err := startServer(bin, filepath.Join(work, fmt.Sprintf("srv%d", i)), seed, seedLog, seedGraph)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, st)
		if i < times-1 {
			s.stop()
			if err := os.RemoveAll(filepath.Join(work, fmt.Sprintf("srv%d", i))); err != nil {
				return nil, nil, err
			}
		}
		srv = s
	}
	return srv, setups, nil
}

// recoverCycles SIGKILLs the server, unless it is already dead, and
// measures n restarts from the state it left: n-1 on copies of its
// directories (killed again once healthy) and the last on the
// directories themselves, which stays running. Every restart starts from
// the same state, so the samples differ only by noise. Each wall time
// includes the kill made here.
func (s *server) recoverCycles(n int) ([]startup, error) {
	t0 := time.Now()
	s.kill()
	killed := time.Since(t0)
	var out []startup
	for i := 1; i < n; i++ {
		dir := fmt.Sprintf("%s-crash%d", filepath.Dir(s.logDir), i)
		c := *s
		c.logDir, c.graphDir = filepath.Join(dir, "log"), filepath.Join(dir, "graph")
		if err := errors.Join(copyDir(s.logDir, c.logDir), copyDir(s.graphDir, c.graphDir)); err != nil {
			return nil, err
		}
		st, err := c.start()
		if err != nil {
			return nil, err
		}
		st.wall += killed
		out = append(out, st)
		c.kill()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	st, err := s.start()
	if err != nil {
		return nil, err
	}
	st.wall += killed
	return append(out, st), nil
}

// medians returns the median wall and CPU seconds of the starts.
func medians(sts []startup) (wall, cpu float64) {
	var w, c []float64
	for _, st := range sts {
		w = append(w, st.wall.Seconds())
		c = append(c, st.cpu.Seconds())
	}
	return median(w), median(c)
}

// serverStats is the subset of GET /stats the benchmark reads.
type serverStats struct {
	Broker struct {
		Published     int `json:"published"`
		Deliveries    int `json:"deliveries"`
		Drops         int `json:"drops"`
		Subscriptions int `json:"subscriptions"`
	} `json:"broker"`
	Gateway struct {
		SSEEventsSent   int64 `json:"sse_events_sent"`
		SlowDisconnects int64 `json:"slow_disconnects"`
		PublishSynced   int64 `json:"publish_synced"`
	} `json:"gateway"`
	Eventlog struct {
		Bytes    int64  `json:"bytes"`
		Appended uint64 `json:"appended"`
		Fsyncs   uint64 `json:"fsyncs"`
	} `json:"eventlog"`
	Extra struct {
		Semweb struct {
			Store struct {
				Triples     int    `json:"triples"`
				DictTerms   int    `json:"dict_terms"`
				Checkpoints uint64 `json:"checkpoints"`
			} `json:"store"`
		} `json:"semweb"`
	} `json:"extra"`
}

func (s *server) stats(c *http.Client) (serverStats, error) {
	var st serverStats
	resp, err := c.Get("http://" + s.addr + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// procUsage is what /proc reports about a process.
type procUsage struct {
	HWMMB float64 // VmHWM, peak resident set
	CPU   time.Duration
}

// readProc reads the peak RSS and utime+stime of pid.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	sc := bufio.NewScanner(bytes.NewReader(status))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return u, err
			}
			u.HWMMB = kb / 1024
		}
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100/s).
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, err
	}
	u.CPU = time.Duration(ut+st) * 10 * time.Millisecond
	return u, nil
}

// hostSteal is the time the hypervisor has kept this machine's virtual
// CPUs from running, summed over CPUs (0 where /proc/stat has no steal
// column).
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// dirBytes sums the sizes of the regular files under dir whose names end
// in suffix ("" for all).
func dirBytes(dir, suffix string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, suffix) {
			n += info.Size()
		}
		return nil
	})
	return n
}
