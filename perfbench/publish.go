package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/wsn"
)

// The publish workload's offered load: open-loop requests of
// publishPer observation envelopes at publishRate requests per second
// (10k events/s), half the single-connection knee measured on a 2-vCPU
// box, so the run measures the server rather than its saturation.
const (
	publishRate = 200
	publishPer  = 50
)

// oneConn is an HTTP client that holds at most one connection.
func oneConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// post sends one publish request and reads its reply.
func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("publish: %s", resp.Status)
	}
	return nil
}

// ssePattern is the single-modality stream pattern for a seed: one of
// the seven WSN modalities, so it carries about a seventh of the traffic.
func ssePattern(seed int64) string {
	m := wsn.AllModalities[int(uint64(seed)%uint64(len(wsn.AllModalities)))]
	return "obs/+/" + m.String()
}

// pubRun is one open-loop publish phase with an SSE reader.
type pubRun struct {
	samples []opSample
	acks    []time.Time // ack receipt per request (zero when it failed)
	want    []int       // seqs of acked events matching the stream
	sse     *sseStream
}

// publishPhase subscribes pattern on addr, sends the n requests of
// traffic open-loop at publishRate per second to url, waits for the
// stream to drain and closes it.
func publishPhase(addr, url string, traffic *batches, n int, pattern string) (*pubRun, error) {
	sse, err := openSSE(addr, pattern)
	if err != nil {
		return nil, err
	}
	c := oneConn()
	defer c.CloseIdleConnections()
	pr := &pubRun{acks: make([]time.Time, n), sse: sse}
	pr.samples = openLoop(realClock{}, time.Now().Add(20*time.Millisecond), time.Second/publishRate, n, func(i int, _ time.Time) error {
		if err := post(c, url, traffic.bodies[i]); err != nil {
			return err
		}
		pr.acks[i] = time.Now()
		return nil
	})
	for i := range pr.samples {
		if pr.samples[i].Err != nil {
			continue
		}
		for k := i * traffic.per; k < (i+1)*traffic.per; k++ {
			if core.TopicMatch(pattern, traffic.topics[k]) {
				pr.want = append(pr.want, k)
			}
		}
	}
	sse.waitFor(pr.want, 5*time.Second)
	sse.close()
	return pr, nil
}

// deliveries returns, per received wanted event, the time from its
// request's due time and from its request's ack to SSE receipt, in ms,
// each stamped with the due time.
func (pr *pubRun) deliveries(per int) (fromDue, fromAck []timedValue) {
	for _, k := range pr.want {
		t, ok := pr.sse.receipt(k)
		if !ok {
			continue
		}
		i := k / per
		due := pr.samples[i].Due
		fromDue = append(fromDue, timedValue{due, ms(t.Sub(due))})
		fromAck = append(fromAck, timedValue{due, ms(t.Sub(pr.acks[i]))})
	}
	return fromDue, fromAck
}

func runPublish(b *bench) (*report, error) {
	srv, setups, err := setupServer(b.dews, b.work, b.seed, "", "", setupRuns)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	n := publishRate * b.seconds
	traffic := obsBatches(b.seed, n, publishPer)
	pattern := ssePattern(b.seed)
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
	t0 := time.Now()
	pr, err := publishPhase(srv.addr, "http://"+srv.addr+"/publish", traffic, n, pattern)
	if err != nil {
		return nil, err
	}
	var lastAck time.Time
	for _, a := range pr.acks {
		if a.After(lastAck) {
			lastAck = a
		}
	}
	genCPU := selfCPU() - cpu0
	proc1, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	after, err := srv.stats(ctl)
	if err != nil {
		return nil, err
	}

	rep := &report{layer: map[string]metric{}, logDir: srv.logDir, graphDir: srv.graphDir}
	ackLat, late, failedReq := latencies(pr.samples)
	missing, problems := pr.sse.check(pr.want)
	rep.problems = append(rep.problems, problems...)
	if failedReq > 0 {
		rep.problem("%d of %d publish requests failed", failedReq, n)
	}
	rep.attempted = n + len(pr.want)
	rep.failed = failedReq + missing
	deliverDue, deliverAck := pr.deliveries(publishPer)
	acked := (n - failedReq) * publishPer
	rate := float64(acked) / lastAck.Sub(t0).Seconds()

	recovers, err := srv.recoverCycles(restartRuns)
	if err != nil {
		return nil, err
	}
	srv.stop()

	start, span := pr.samples[0].Due, time.Duration(n)*time.Second/publishRate
	ack, deliver := values(ackLat), values(deliverDue)
	setupS, setupCPU := medians(setups)
	recoverS, recoverCPU := medians(recovers)
	rep.setWall(rate,
		windowMedian(ackLat, start, span, windows, median),
		windowMedian(deliverDue, start, span, windows, median),
		setupS, recoverS)
	rep.add("setup_s", setupCPU, "s")
	rep.add("setup_wall_s", setupS, "s")
	rep.add("rss_peak_mb", proc1.HWMMB, "MB")
	rep.add("acked_events_per_s", rate, "1/s")
	rep.add("publish_ack_p50_ms", median(ack), "ms")
	rep.add("publish_ack_p50_ms.windowed", rep.layer["wall.write_p50_ms"].Value, "ms")
	rep.add("publish_ack_p99_ms", percentile(ack, 0.99), "ms")
	rep.add("deliver_p50_ms", median(deliver), "ms")
	rep.add("deliver_p50_ms.windowed", rep.layer["wall.read_p50_ms"].Value, "ms")
	rep.add("deliver_p99_ms", percentile(deliver, 0.99), "ms")
	rep.add("restart_s", recoverS, "s")
	rep.add("restart_cpu_s", recoverCPU, "s")
	rep.add("samples.publish_acks", float64(len(ack)), "count")
	rep.add("samples.sse_deliveries", float64(len(deliver)), "count")
	rep.add("working_set.log_bytes", float64(after.Eventlog.Bytes), "B")

	serverCounts(rep, before, after, proc0, proc1, float64(acked))
	rep.e2e = e2eMetrics(setupCPU, proc1.HWMMB, rep.layer["server.cpu_ms_per_1k_events"].Value, recoverCPU)
	rep.layer["gateway.sse_lag_p50_ms"] = metric{median(values(deliverAck)), "ms"}
	rep.layer["gen.late_p99_ms"] = metric{percentile(late, 0.99), "ms"}
	rep.layer["gen.cpu_s"] = metric{genCPU.Seconds(), "s"}
	rep.layer["tail.write_p99_ms"] = metric{percentile(ack, 0.99), "ms"}
	rep.layer["tail.read_p99_ms"] = metric{percentile(deliver, 0.99), "ms"}
	return rep, nil
}

// serverCounts derives the per-layer counts of a live server run from
// its /stats before and after and its /proc usage; ops is the number of
// operations the server handled (published events, plus queries on the
// query workload).
func serverCounts(rep *report, before, after serverStats, proc0, proc1 procUsage, ops float64) {
	published := float64(after.Broker.Published - before.Broker.Published)
	appended := float64(after.Eventlog.Appended - before.Eventlog.Appended)
	rep.layer["gateway.sse_events_sent"] = metric{float64(after.Gateway.SSEEventsSent - before.Gateway.SSEEventsSent), "count"}
	rep.layer["gateway.slow_disconnects"] = metric{float64(after.Gateway.SlowDisconnects - before.Gateway.SlowDisconnects), "count"}
	rep.layer["core.broker.deliveries_per_publish"] = metric{ratio(float64(after.Broker.Deliveries-before.Broker.Deliveries), published), "ratio"}
	rep.layer["core.broker.drops"] = metric{float64(after.Broker.Drops - before.Broker.Drops), "count"}
	rep.layer["core.broker.subscriptions"] = metric{float64(after.Broker.Subscriptions), "count"}
	rep.layer["eventlog.bytes_per_record"] = metric{ratio(float64(after.Eventlog.Bytes-before.Eventlog.Bytes), appended), "B"}
	if synced := float64(after.Gateway.PublishSynced - before.Gateway.PublishSynced); synced > 0 {
		rep.layer["eventlog.fsyncs_per_synced_ack"] = metric{float64(after.Eventlog.Fsyncs-before.Eventlog.Fsyncs) / synced, "ratio"}
	}
	rep.layer["graphlog.checkpoints"] = metric{float64(after.Extra.Semweb.Store.Checkpoints - before.Extra.Semweb.Store.Checkpoints), "count"}
	rep.layer["server.cpu_ms_per_1k_events"] = metric{ratio(ms(proc1.CPU-proc0.CPU), ops/1000), "ms"}
	rep.add("server.cpu_ms_per_1k_ops", rep.layer["server.cpu_ms_per_1k_events"].Value, "ms")
	rep.layer["eventlog.log_bytes"] = metric{float64(after.Eventlog.Bytes), "B"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics builds the end-to-end metric set every workload reports;
// README.md gives each one's meaning per workload. The wall-clock
// figures go to the per-layer set (setWall): on a shared machine they do
// not hold the run-to-run bound.
func e2eMetrics(setupCPUS, rssMB, cpuMsPerKop, recoverCPUS float64) map[string]metric {
	return map[string]metric{
		"setup_s":           {setupCPUS, "s"},
		"rss_peak_mb":       {rssMB, "MB"},
		"cpu_ms_per_1k_ops": {cpuMsPerKop, "ms"},
		"recover_cpu_s":     {recoverCPUS, "s"},
	}
}

// setWall records the workload's wall-clock figures under the names
// every workload shares.
func (r *report) setWall(throughput, writeMS, readMS, setupS, recoverS float64) {
	r.layer["wall.throughput_per_s"] = metric{throughput, "1/s"}
	r.layer["wall.write_p50_ms"] = metric{writeMS, "ms"}
	r.layer["wall.read_p50_ms"] = metric{readMS, "ms"}
	r.layer["wall.setup_s"] = metric{setupS, "s"}
	r.layer["wall.recover_s"] = metric{recoverS, "s"}
}
