package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// stealLine picks the host steal share out of a run's table, which says
// whether the shared machine slowed the run.
func stealLine(out []byte) string {
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "host.steal_frac" {
			return "steal=" + f[1]
		}
	}
	return ""
}

// repeatMode runs the workload n times on seeds seed..seed+n-1, each in a
// fresh process as a single run would be, and prints every end-to-end
// metric's median, quartiles and spread — (q3-q1)/median — next to its
// bound. A spread below a third of the bound is marked steady.
func repeatMode(root, dews, workload string, seed int64, seconds, n int) int {
	var bf benchmarkFile
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reading BENCHMARK.json:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	values := map[string][]float64{}
	units := map[string]string{}
	bad := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", "0", "--root", root, "--dews", dews)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		res, err := lastJSONLine(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: seed %d: %v (%v)\n", s, err, runErr)
			bad++
			continue
		}
		if !res.Correct {
			bad++
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d %s", s, res.Correct, res.Attempted, res.Failed, stealLine(out))
		for _, k := range sortedKeys(res.Metrics) {
			values[k] = append(values[k], res.Metrics[k].Value)
			units[k] = res.Metrics[k].Unit
			fmt.Printf(" %s=%.4g", k, res.Metrics[k].Value)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-18s %12s %12s %12s %8s %6s  %s\n", "metric", "q1", "median", "q3", "spread", "bound", "")
	for _, e := range bf.EndToEnd {
		v := values[e.Name]
		if len(v) == 0 {
			fmt.Printf("%-18s missing\n", e.Name)
			continue
		}
		q1, q2, q3 := quartiles(v)
		sp := spread(v)
		verdict := "steady"
		switch {
		case sp > e.Bound:
			verdict = "WIDER THAN BOUND"
		case sp > e.Bound/3:
			verdict = "within bound, above a third of it"
		}
		fmt.Printf("%-18s %12.4f %12.4f %12.4f %8.4f %6.3f  %s %s\n", e.Name, q1, q2, q3, sp, e.Bound, units[e.Name], verdict)
	}
	if bad > 0 {
		fmt.Printf("%d of %d runs failed or were incorrect\n", bad, n)
		return 1
	}
	return 0
}
