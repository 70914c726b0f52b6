package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/internal/dews"
	"repro/internal/eventlog"
	"repro/internal/graphlog"
)

// ingestOut is what the ingest child process reports to the generator.
type ingestOut struct {
	SetupS    []float64 // NewSystem durations
	SetupCPU  []float64 // process CPU seconds during NewSystem
	RunS      []float64 // Run + Close durations
	RunCPU    []float64 // process CPU seconds during Run + Close
	Readings  []int     // readings fetched per run
	ReopenS   []float64 // eventlog.Open + graphlog.Open of a closed run
	ReopenCPU []float64 // process CPU seconds during the reopen
	ScanMS    []float64 // full Scan of the reopened log
	HWMMB     float64
	Problems  []string
	BadRuns   int // runs that failed a check
	LogBytes  int64
	Records   uint64
	Triples   int
	Terms     int
	Ckpts     uint64
	Broker    struct{ Published, Deliveries, Drops, Subscriptions int }
	LogDir    string
	GraphDir  string
}

// runIngest runs the batch pipeline in a child process of this binary
// and turns its samples into the report.
func runIngest(b *bench, keep bool) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--role", "ingest-child", "--seed", strconv.FormatInt(b.seed, 10),
		"--seconds", strconv.Itoa(b.seconds), "--work", filepath.Join(b.work, "ingest")}
	if keep {
		args = append(args, "--keep")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cpu0 := selfCPU()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ingest child: %w", err)
	}
	genCPU := selfCPU() - cpu0
	var o ingestOut
	if err := json.Unmarshal(out, &o); err != nil {
		return nil, fmt.Errorf("ingest child output: %w", err)
	}
	rep := &report{layer: map[string]metric{}, logDir: o.LogDir, graphDir: o.GraphDir, problems: o.Problems}
	var rates []float64
	for i, s := range o.RunS {
		rates = append(rates, float64(o.Readings[i])/s)
	}
	// One operation is one checked pipeline run.
	rep.attempted, rep.failed = len(o.RunS), o.BadRuns
	var cpuPerKop []float64
	for i, c := range o.RunCPU {
		cpuPerKop = append(cpuPerKop, 1000*c/(float64(o.Readings[i])/1000))
	}
	rep.e2e = e2eMetrics(median(o.SetupCPU), o.HWMMB, median(cpuPerKop), median(o.ReopenCPU))
	rep.setWall(median(rates), 1000*median(o.RunS), median(o.ScanMS), median(o.SetupS), median(o.ReopenS))
	rep.add("setup_s", median(o.SetupCPU), "s")
	rep.add("setup_wall_s", median(o.SetupS), "s")
	rep.add("rss_peak_mb", o.HWMMB, "MB")
	rep.add("ingest_readings_per_s", median(rates), "1/s")
	rep.add("run_close_p50_ms", 1000*median(o.RunS), "ms")
	rep.add("run_close_cpu_ms_per_1k_readings", median(cpuPerKop), "ms")
	rep.add("log_scan_p50_ms", median(o.ScanMS), "ms")
	rep.add("reopen_s", median(o.ReopenS), "s")
	rep.add("reopen_cpu_s", median(o.ReopenCPU), "s")
	rep.add("samples.runs", float64(len(o.RunS)), "count")
	rep.add("samples.setups", float64(len(o.SetupS)), "count")
	rep.add("inputs.readings_per_run", float64(o.Readings[0]), "count")
	rep.add("working_set.triples", float64(o.Triples), "count")
	rep.add("working_set.terms", float64(o.Terms), "count")
	rep.add("working_set.log_bytes", float64(o.LogBytes), "B")

	// No gateway and no open-loop generator on this workload.
	rep.layer["gateway.sse_events_sent"] = metric{0, "count"}
	rep.layer["gateway.sse_lag_p50_ms"] = metric{0, "ms"}
	rep.layer["gen.late_p99_ms"] = metric{0, "ms"}
	rep.layer["gateway.slow_disconnects"] = metric{0, "count"}
	rep.layer["core.broker.deliveries_per_publish"] = metric{ratio(float64(o.Broker.Deliveries), float64(o.Broker.Published)), "ratio"}
	rep.layer["core.broker.drops"] = metric{float64(o.Broker.Drops), "count"}
	rep.layer["core.broker.subscriptions"] = metric{float64(o.Broker.Subscriptions), "count"}
	rep.layer["eventlog.bytes_per_record"] = metric{ratio(float64(o.LogBytes), float64(o.Records)), "B"}
	rep.layer["eventlog.log_bytes"] = metric{float64(o.LogBytes), "B"}
	rep.layer["graphlog.checkpoints"] = metric{float64(o.Ckpts), "count"}
	rep.layer["server.cpu_ms_per_1k_events"] = metric{median(cpuPerKop), "ms"}
	rep.layer["gen.cpu_s"] = metric{genCPU.Seconds(), "s"}
	rep.layer["tail.write_p99_ms"] = metric{1000 * percentile(o.RunS, 0.99), "ms"}
	rep.layer["tail.read_p99_ms"] = metric{percentile(o.ScanMS, 0.99), "ms"}
	return rep, nil
}

// setupSamples is how many times the ingest child times NewSystem.
const setupSamples = 30

// ingestChild is the process under test of the ingest workload: it runs
// the default scenario (5 districts × 12 years, 4 nodes each) with a
// durable log and graph, repeatedly on fresh directories until seconds
// have passed (at least three times, so the medians have three samples),
// checks each run, and prints its samples as one JSON object.
func ingestChild(seed int64, seconds int, work string, keep bool) int {
	var o ingestOut
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench ingest:", err)
		return 1
	}
	// Set-up samples: NewSystem alone, on fresh directories. It takes
	// milliseconds, so one run takes many to report a steady median.
	// Each starts from a collected heap, so no sample pays for another's
	// garbage.
	for i := 0; i < setupSamples; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		runtime.GC()
		t0, c0 := time.Now(), selfCPU()
		sys, err := dews.NewSystem(dews.Config{Seed: seed, LogDir: filepath.Join(dir, "log"), GraphDir: filepath.Join(dir, "graph")})
		if err != nil {
			return fail(err)
		}
		o.SetupS = append(o.SetupS, time.Since(t0).Seconds())
		o.SetupCPU = append(o.SetupCPU, (selfCPU() - c0).Seconds())
		if err := sys.Close(); err != nil {
			return fail(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return fail(err)
		}
	}
	start := time.Now()
	prev := ""
	for i := 0; i < 3 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		dir := filepath.Join(work, fmt.Sprintf("run%d", i))
		if err := ingestOnce(&o, seed, dir); err != nil {
			return fail(err)
		}
		if prev != "" {
			if err := os.RemoveAll(prev); err != nil {
				return fail(err)
			}
		}
		prev = dir
	}
	if keep {
		o.LogDir, o.GraphDir = filepath.Join(prev, "log"), filepath.Join(prev, "graph")
	} else if err := os.RemoveAll(prev); err != nil {
		return fail(err)
	}
	self, err := readProc(os.Getpid())
	if err != nil {
		return fail(err)
	}
	o.HWMMB = self.HWMMB
	if err := json.NewEncoder(os.Stdout).Encode(o); err != nil {
		return fail(err)
	}
	return 0
}

// ingestOnce runs, checks and reopens one pipeline run in dir.
func ingestOnce(o *ingestOut, seed int64, dir string) error {
	logDir, graphDir := filepath.Join(dir, "log"), filepath.Join(dir, "graph")
	sys, err := dews.NewSystem(dews.Config{Seed: seed, LogDir: logDir, GraphDir: graphDir})
	if err != nil {
		return err
	}
	t1, c1 := time.Now(), selfCPU()
	res, err := sys.Run()
	if err != nil {
		sys.Close()
		return err
	}
	bst := sys.Middleware().Broker().Stats()
	lst := sys.Middleware().Broker().Log().Stats()
	gst := sys.GraphStore().Stats()
	if err := sys.Close(); err != nil {
		return err
	}
	o.RunS = append(o.RunS, time.Since(t1).Seconds())
	o.RunCPU = append(o.RunCPU, (selfCPU() - c1).Seconds())
	o.Readings = append(o.Readings, res.Fetched)
	o.Broker.Published, o.Broker.Deliveries = bst.Published, bst.Deliveries
	o.Broker.Drops, o.Broker.Subscriptions = bst.Drops, bst.Subscriptions
	o.LogBytes, o.Records = lst.Bytes, lst.NextOffset-1
	o.Triples, o.Terms, o.Ckpts = gst.Triples, gst.DictTerms, gst.Checkpoints

	had := len(o.Problems)
	defer func() {
		if len(o.Problems) > had {
			o.BadRuns++
		}
	}()
	problem := func(format string, args ...any) {
		o.Problems = append(o.Problems, fmt.Sprintf(format, args...))
	}
	if res.Annotated+res.Failed != res.Fetched {
		problem("annotated %d + failed %d != fetched %d", res.Annotated, res.Failed, res.Fetched)
	}
	web := res.Hub.Delivered["semantic-web"]
	if web != len(res.Bulletins) || gst.Triples != 6*web {
		problem("graph holds %d triples for %d bulletins (%d delivered to the semantic web), want 6 per bulletin",
			gst.Triples, len(res.Bulletins), web)
	}

	// Reopen both directories: the recovered state must match what was
	// there before Close, and every logged record must scan back.
	t2, c2 := time.Now(), selfCPU()
	l, err := eventlog.Open(eventlog.Config{Dir: logDir})
	if err != nil {
		return err
	}
	st, err := graphlog.Open(graphlog.Config{Dir: graphDir})
	if err != nil {
		l.Close()
		return err
	}
	o.ReopenS = append(o.ReopenS, time.Since(t2).Seconds())
	o.ReopenCPU = append(o.ReopenCPU, (selfCPU() - c2).Seconds())
	if got := l.NextOffset() - 1; got != lst.NextOffset-1 {
		problem("reopened log holds %d records, %d before close", got, lst.NextOffset-1)
	}
	if got := st.Stats().Triples; got != gst.Triples {
		problem("reopened graph holds %d triples, %d before close", got, gst.Triples)
	}
	t3 := time.Now()
	scanned := uint64(0)
	if _, err := l.Scan(1, func(eventlog.Record) error { scanned++; return nil }); err != nil {
		problem("scanning the reopened log: %v", err)
	}
	o.ScanMS = append(o.ScanMS, ms(time.Since(t3)))
	if scanned != lst.NextOffset-1 {
		problem("scanned %d records from the reopened log, want %d", scanned, lst.NextOffset-1)
	}
	if err := st.Close(); err != nil {
		l.Close()
		return err
	}
	return l.Close()
}
