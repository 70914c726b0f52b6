// Command perfbench is the repository benchmark. It drives three
// workloads against the dews stack as shipped — a batch ingest run of
// the paper pipeline (dews.NewSystem + Run + Close) in a process of its
// own, and publish and query traffic against `dews -serve` as a child
// process — checks every output against an oracle, and prints one JSON
// result line last:
//
//	perfbench --workload ingest|publish|query --seed N --seconds S --trace 0|1
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics: counts scraped from the server and
// /proc during the same live run, and times from spans the benchmark
// records around calls into each layer's public functions while it
// replays the same generated inputs. --repeat N runs the workload N
// times on consecutive seeds and prints each metric's median and
// quartile spread next to its bound in BENCHMARK.json.
//
// Build and run it through run.sh, which compiles the server and this
// command from the checkout. See README.md for what each metric means
// on each workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// loadConns is how many client connections, and load goroutines, the
// generator uses at most: one writer and one reader.
const loadConns = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one invocation's settings.
type bench struct {
	root, work, dews string
	seed             int64
	seconds          int
}

// report is one live workload run.
type report struct {
	e2e map[string]metric
	// named holds the workload's metrics under their workload-specific
	// names (publish_ack_p50_ms, restart_s, ...), printed for people.
	named     []namedMetric
	layer     map[string]metric
	attempted int
	failed    int
	problems  []string
	// logDir and graphDir are the durable directories the run left
	// behind; the traced run reopens them.
	logDir, graphDir string
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

func (r *report) add(name string, v float64, unit string) {
	r.named = append(r.named, namedMetric{name, v, unit})
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "ingest, publish or query")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		repeat   = flag.Int("repeat", 0, "run N times on consecutive seeds and print medians and spreads")
		root     = flag.String("root", ".", "repository checkout")
		dewsBin  = flag.String("dews", "", "path of the built dews server")
		role     = flag.String("role", "", "internal: ingest-child")
		work     = flag.String("work", "", "internal: ingest child's working directory")
		keep     = flag.Bool("keep", false, "internal: ingest child keeps its last directories")
	)
	flag.Parse()
	if *role == "ingest-child" {
		return ingestChild(*seed, *seconds, *work, *keep)
	}
	if n := runtime.NumCPU(); n < loadConns {
		fmt.Fprintf(os.Stderr, "perfbench: the generator needs %d connections and load goroutines but nproc is %d\n", loadConns, n)
		return 2
	}
	if *workload != "ingest" && *workload != "publish" && *workload != "query" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *workload)
		return 2
	}
	if *dewsBin == "" || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: needs --dews and --seconds >= 1")
		return 2
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *repeat > 0 {
		return repeatMode(absRoot, *dewsBin, *workload, *seed, *seconds, *repeat)
	}
	b := &bench{
		root:    absRoot,
		dews:    *dewsBin,
		seed:    *seed,
		seconds: *seconds,
		work:    filepath.Join(absRoot, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
	}
	defer os.RemoveAll(b.work)
	res, err := runOnce(b, *workload, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runOnce(b *bench, workload string, traced bool) (*result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	var rep *report
	var err error
	steal0, t0 := hostSteal(), time.Now()
	switch workload {
	case "ingest":
		rep, err = runIngest(b, traced)
	case "publish":
		rep, err = runPublish(b)
	case "query":
		rep, err = runQuery(b)
	}
	if err != nil {
		return nil, err
	}
	rep.add("host.steal_frac", ratio(float64(hostSteal()-steal0), float64(time.Since(t0))*float64(runtime.NumCPU())), "ratio")
	printReport(workload, b.seed, rep)
	res := &result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if traced {
		res.Metrics, err = traceLayers(b, workload, rep)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printReport writes the human-readable part of the output: every
// metric under its workload-specific name, then any oracle failure.
func printReport(workload string, seed int64, rep *report) {
	fmt.Printf("# workload %s, seed %d\n", workload, seed)
	for _, m := range rep.named {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	failedFrac := 0.0
	if rep.attempted > 0 {
		failedFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-28s %14.6f ratio (%d of %d operations)\n", "failed_frac", failedFrac, rep.failed, rep.attempted)
	for _, p := range rep.problems {
		fmt.Printf("ORACLE FAILED: %s\n", p)
	}
}

// sortedKeys lists a metric map's names in order.
func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lastJSONLine parses the last line of out as a result.
func lastJSONLine(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
