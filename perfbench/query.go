package main

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dews"
	"repro/internal/eventlog"
	"repro/internal/graphlog"
	"repro/internal/rdf"
)

// The query workload: a graph of seededCount bulletins (600k triples,
// larger than the CPU caches) read by a closed-loop SPARQL client while
// an open-loop writer sends ?sync=1 bulletin publishes at syncRate
// requests of syncPer per second.
const (
	seededCount = 100_000
	syncRate    = 50
	syncPer     = 10
	// crashN more ?sync=1 requests follow the measured phase; the
	// server is SIGKILLed straight after the last one is acked.
	crashN = 25
)

// seedGraph writes the seeded bulletins into a graph directory through
// graphlog's public API and checkpoints it, so the server opens a
// snapshot rather than replaying a WAL.
func seedGraph(dir string, bs []bulletin) error {
	st, err := graphlog.Open(graphlog.Config{Dir: dir, CheckpointInterval: -1})
	if err != nil {
		return err
	}
	const chunk = 1000 // bulletins per commit
	var ts []rdf.Triple
	for i, b := range bs {
		ts = append(ts, b.triples()...)
		if (i+1)%chunk == 0 || i == len(bs)-1 {
			if err := st.AddAll(ts...); err != nil {
				st.Close()
				return err
			}
			ts = ts[:0]
		}
	}
	if err := st.Checkpoint(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// startupBulletins runs the server's start-up scenario in process and
// counts the bulletins it disseminates per district: the server adds
// exactly these to the graph before it serves, so the scan's expected
// counts are the seeded ones plus these.
func startupBulletins(seed int64) (map[string]int, error) {
	sys, err := dews.NewSystem(dews.Config{Seed: seed, Years: startupYears, TrainYears: startupTrain})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res, err := sys.Run()
	if err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, b := range res.Bulletins {
		out[b.District]++
	}
	return out, nil
}

type queryResult struct {
	at      time.Time // when the query was sent
	kind    string
	latency time.Duration
	err     error
	wrong   bool
}

// runQueries sends queries closed-loop over one connection until stop
// is closed, checking each answer.
func runQueries(addr string, qs []sparqlQuery, stop <-chan struct{}) (out []queryResult) {
	c := oneConn()
	defer c.CloseIdleConnections()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		default:
		}
		q := qs[i%len(qs)]
		t0 := time.Now()
		body, err := getText(c, "http://"+addr+"/semweb/sparql?query="+url.QueryEscape(q.Text))
		r := queryResult{at: t0, kind: q.Kind, latency: time.Since(t0), err: err}
		if err == nil {
			r.wrong = canonResult(body) != q.Want
		}
		out = append(out, r)
	}
}

func getText(c *http.Client, u string) (string, error) {
	resp, err := c.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return string(b), nil
}

// recoveredSeqs reads a stopped server's event log and returns the seq
// headers it holds.
func recoveredSeqs(dir string) (map[int]bool, error) {
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	seqs := map[int]bool{}
	_, err = l.Scan(1, func(r eventlog.Record) error {
		if s, ok := r.Headers[seqHeader]; ok {
			if k, err := strconv.Atoi(s); err == nil {
				seqs[k] = true
			}
		}
		return nil
	})
	return seqs, err
}

func runQuery(b *bench) (*report, error) {
	seeded := seededBulletins(b.seed, seededCount)
	tmpl := filepath.Join(b.work, "seed-graph")
	t0 := time.Now()
	if err := seedGraph(tmpl, seeded); err != nil {
		return nil, err
	}
	seedTime := time.Since(t0)
	extra, err := startupBulletins(b.seed)
	if err != nil {
		return nil, err
	}
	qs := queryMix(b.seed, 5000, seeded, extra)
	n := syncRate * b.seconds
	traffic := bulletinBatches(b.seed, n+crashN, syncPer)

	srv, setups, err := setupServer(b.dews, b.work, b.seed, "", tmpl, setupRuns)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	ctl := &http.Client{Timeout: 10 * time.Second}
	before, err := srv.stats(ctl)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	proc0, err := readProc(pid)
	if err != nil {
		return nil, err
	}

	cpu0 := selfCPU()
	start := time.Now()
	stop := make(chan struct{})
	var results []queryResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results = runQueries(srv.addr, qs, stop)
	}()
	c := oneConn()
	url := "http://" + srv.addr + "/publish?sync=1"
	samples := openLoop(realClock{}, start.Add(20*time.Millisecond), time.Second/syncRate, n, func(i int, _ time.Time) error {
		return post(c, url, traffic.bodies[i])
	})
	close(stop)
	wg.Wait()
	window := time.Since(start)
	genCPU := selfCPU() - cpu0
	proc1, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	after, err := srv.stats(ctl)
	if err != nil {
		return nil, err
	}
	// The crash: open-loop ?sync=1 publishes go on at the same rate and
	// the server is killed the moment the last one is acked, before its
	// background fsync can run, so an acked record that the sync path
	// left unflushed is lost and the recovery oracle below sees it.
	crash := openLoop(realClock{}, time.Now().Add(time.Second/syncRate), time.Second/syncRate, crashN, func(i int, _ time.Time) error {
		err := post(c, url, traffic.bodies[n+i])
		if i == crashN-1 {
			srv.kill()
		}
		return err
	})
	c.CloseIdleConnections()
	recovers, err := srv.recoverCycles(restartRuns)
	if err != nil {
		return nil, err
	}
	srv.stop()

	rep := &report{layer: map[string]metric{}, logDir: srv.logDir, graphDir: srv.graphDir}
	ackLat, late, failedReq := latencies(samples)
	_, _, failedCrash := latencies(crash)
	if failedReq+failedCrash > 0 {
		rep.problem("%d of %d ?sync=1 publishes failed", failedReq+failedCrash, n+crashN)
	}
	byKind := map[string][]float64{}
	var pointAt, doneAt []timedValue
	failedQ, wrongQ := 0, 0
	for _, r := range results {
		switch {
		case r.err != nil:
			failedQ++
		case r.wrong:
			wrongQ++
		default:
			byKind[r.kind] = append(byKind[r.kind], ms(r.latency))
			doneAt = append(doneAt, timedValue{r.at, r.latency.Seconds()})
			if r.kind == "point" {
				pointAt = append(pointAt, timedValue{r.at, ms(r.latency)})
			}
		}
	}
	if failedQ > 0 {
		rep.problem("%d of %d SPARQL queries failed", failedQ, len(results))
	}
	if wrongQ > 0 {
		rep.problem("%d of %d SPARQL answers differ from the seeded data", wrongQ, len(results))
	}
	seqs, err := recoveredSeqs(srv.logDir)
	if err != nil {
		return nil, err
	}
	lost, lostReq := 0, 0
	for i, s := range append(samples, crash...) {
		if s.Err != nil {
			continue
		}
		had := lost
		for k := i * syncPer; k < (i+1)*syncPer; k++ {
			if !seqs[k] {
				lost++
			}
		}
		if lost > had {
			lostReq++
		}
	}
	if lost > 0 {
		rep.problem("%d ?sync=1-acked bulletins missing from the recovered log", lost)
	}
	rep.attempted = n + crashN + len(results)
	rep.failed = failedReq + failedCrash + lostReq + failedQ + wrongQ

	qps := float64(len(results)) / window.Seconds()
	point, ack := byKind["point"], values(ackLat)
	wstart, span := samples[0].Due, time.Duration(n)*time.Second/syncRate
	// A closed loop's rate is the inverse of its mean latency.
	perSecond := func(b []float64) float64 { return ratio(float64(len(b)), sum(b)) }
	setupS, setupCPU := medians(setups)
	recoverS, recoverCPU := medians(recovers)
	rep.setWall(windowMedian(doneAt, wstart, span, windows, perSecond),
		windowMedian(ackLat, wstart, span, windows, median),
		windowMedian(pointAt, wstart, span, windows, median),
		setupS, recoverS)
	rep.add("setup_s", setupCPU, "s")
	rep.add("setup_wall_s", setupS, "s")
	rep.add("rss_peak_mb", proc1.HWMMB, "MB")
	rep.add("sync_ack_p50_ms", median(ack), "ms")
	rep.add("sync_ack_p99_ms", percentile(ack, 0.99), "ms")
	rep.add("sparql_scan_p50_ms", median(byKind["scan"]), "ms")
	rep.add("sparql_point_p50_ms", median(point), "ms")
	rep.add("sparql_join_p50_ms", median(byKind["join"]), "ms")
	rep.add("sparql_qps", qps, "1/s")
	rep.add("sparql_qps.windowed", rep.layer["wall.throughput_per_s"].Value, "1/s")
	rep.add("sparql_point_p50_ms.windowed", rep.layer["wall.read_p50_ms"].Value, "ms")
	rep.add("sync_ack_p50_ms.windowed", rep.layer["wall.write_p50_ms"].Value, "ms")
	rep.add("restart_s", recoverS, "s")
	rep.add("restart_cpu_s", recoverCPU, "s")
	rep.add("samples.sync_acks", float64(len(ack)), "count")
	rep.add("samples.sparql_scan", float64(len(byKind["scan"])), "count")
	rep.add("samples.sparql_point", float64(len(point)), "count")
	rep.add("inputs.seed_graph_s", seedTime.Seconds(), "s")
	rep.add("working_set.triples", float64(before.Extra.Semweb.Store.Triples), "count")
	rep.add("working_set.terms", float64(before.Extra.Semweb.Store.DictTerms), "count")
	rep.add("working_set.snapshot_bytes", float64(dirBytes(tmpl, ".gsnap")), "B")
	rep.add("working_set.log_bytes", float64(after.Eventlog.Bytes), "B")

	serverCounts(rep, before, after, proc0, proc1, float64((n-failedReq)*syncPer+len(results)))
	rep.e2e = e2eMetrics(setupCPU, proc1.HWMMB, rep.layer["server.cpu_ms_per_1k_events"].Value, recoverCPU)
	rep.layer["gateway.sse_lag_p50_ms"] = metric{0, "ms"} // no SSE stream on this workload
	rep.layer["gen.late_p99_ms"] = metric{percentile(late, 0.99), "ms"}
	rep.layer["gen.cpu_s"] = metric{genCPU.Seconds(), "s"}
	rep.layer["tail.write_p99_ms"] = metric{percentile(ack, 0.99), "ms"}
	rep.layer["tail.read_p99_ms"] = metric{percentile(point, 0.99), "ms"}
	return rep, nil
}
