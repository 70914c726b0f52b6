package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// replayInputs is what a workload's traced replay feeds the layers: its
// own publish traffic, its pipeline scenario and queries against the
// graph its live run left behind.
type replayInputs struct {
	traffic      *batches // requests replayed through the publish path
	years, train int
	queries      []sparqlQuery
}

func inputsFor(b *bench, workload string, rep *report) (*replayInputs, error) {
	in := &replayInputs{years: startupYears, train: startupTrain}
	switch workload {
	case "ingest", "publish":
		// The ingest workload has no publish traffic of its own; it
		// replays the publish workload's kind of traffic for the layers
		// only a server reaches.
		in.traffic = obsBatches(b.seed, 500, publishPer)
		if workload == "ingest" {
			in.years, in.train = 12, 6 // dews.Config defaults
		}
	case "query":
		in.traffic = bulletinBatches(b.seed, 250, syncPer)
	}
	var bs []bulletin
	if workload == "query" {
		bs = seededBulletins(b.seed, seededCount)
	} else {
		var err error
		if bs, err = graphBulletins(rep.graphDir); err != nil {
			return nil, err
		}
	}
	in.queries = queryMix(b.seed, 200, bs, nil)
	return in, nil
}

// traceLayers replays the workload's inputs through the layers, once
// traced between two untraced runs, writes the spans, and returns every
// per-layer metric: span-derived times, the live run's counts, and the
// tracing overhead (traced wall time over the mean untraced one, minus 1).
func traceLayers(b *bench, workload string, rep *report) (map[string]metric, error) {
	in, err := inputsFor(b, workload, rep)
	if err != nil {
		return nil, err
	}
	ref, err := referenceRun(b.seed, in.years, in.train)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	dir := filepath.Join(b.work, "replay")
	var (
		pc   pipelineCounts
		path pathCounts
		qc   queryCounts
	)
	passes := []struct {
		name string
		run  func(tr *tracer) error
	}{
		{"pipeline", func(tr *tracer) error {
			var err error
			pc, err = replayPipeline(tr, filepath.Join(dir, "pipeline"), b.seed, in.years, in.train, ref)
			return errors.Join(err, os.RemoveAll(filepath.Join(dir, "pipeline")))
		}},
		{"publish-path", func(tr *tracer) error {
			var err error
			path, err = replayPublishPath(tr, filepath.Join(dir, "path"), in.traffic)
			return errors.Join(err, os.RemoveAll(filepath.Join(dir, "path")))
		}},
		{"startup-query", func(tr *tracer) error {
			var err error
			qc, err = replayStartupQueries(tr, rep.logDir, rep.graphDir, in.queries)
			return err
		}},
	}
	times := make([]layerTimes, len(passes))
	var untraced, traced time.Duration
	for i, p := range passes {
		var walls [3]time.Duration
		var tr *tracer
		for j := range walls {
			t := newTracer(j == 1)
			t0 := time.Now()
			if err := p.run(t); err != nil {
				return nil, fmt.Errorf("%s replay: %w", p.name, err)
			}
			walls[j] = time.Since(t0)
			if t.on {
				tr = t
			}
		}
		untraced += (walls[0] + walls[2]) / 2
		traced += walls[1]
		times[i] = tr.times()
		path := filepath.Join(b.root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d-%s.jsonl", workload, b.seed, p.name))
		if err := tr.write(path); err != nil {
			return nil, err
		}
	}
	httpPoint, err := httpPointQueries(rep.graphDir, in.queries)
	if err != nil {
		return nil, err
	}
	pipe, pub, sq := times[0], times[1], times[2]

	m := map[string]metric{}
	for k, v := range rep.layer {
		m[k] = v
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	setIfAbsent := func(name string, v float64, unit string) {
		if _, ok := m[name]; !ok {
			set(name, v, unit)
		}
	}
	set("gateway.decode_us_per_event", pub.perUS("gateway.decode", path.events), "us")
	set("core.broker.publish_batch_us_per_event", pub.perUS("core.broker.publish_batch", path.events), "us")
	set("core.broker.attach_log_ms", sq.p50ms("core.broker.attach_log"), "ms")
	set("eventlog.append_us_per_record", pub.perUS("eventlog.append", path.events), "us")
	set("eventlog.sync_p50_ms", pub.p50ms("eventlog.sync"), "ms")
	setIfAbsent("eventlog.fsyncs_per_synced_ack", ratio(float64(path.fsyncs), float64(path.syncs)), "ratio")
	set("eventlog.open_ms", sq.p50ms("eventlog.open"), "ms")
	set("graphlog.open_ms", sq.p50ms("graphlog.open"), "ms")
	set("graphlog.commit_us_per_bulletin", pipe.perUS("graphlog.commit", pc.bulletins), "us")
	set("graphlog.wal_bytes_per_triple", ratio(float64(pc.walBytes), float64(pc.committed)), "B")
	set("rdf.snapshot_us", sq.perUS("rdf.snapshot", qc.queries), "us")
	set("rdf.triples", float64(qc.triples), "count")
	set("rdf.terms", float64(qc.terms), "count")
	set("sparql.parse_us", sq.perUS("sparql.parse", qc.queries), "us")
	set("sparql.exec_scan_ms_p50", sq.p50ms("sparql.exec.scan"), "ms")
	set("sparql.exec_point_ms_p50", sq.p50ms("sparql.exec.point"), "ms")
	set("sparql.rows_per_query", ratio(float64(qc.rows), float64(qc.queries)), "count")
	traced1 := sq.p50ms("sparql.parse") + sq.p50ms("rdf.snapshot") + sq.p50ms("sparql.exec.point")
	set("dissemination.http_overhead_ms", median(httpPoint)-traced1, "ms")
	set("dissemination.hub_publish_us_per_bulletin", pipe.perUS("dissemination.hub_publish", pc.bulletins), "us")
	set("climate.generate_ms", ms(pipe["climate.generate"].self), "ms")
	set("wsn.uplink_us_per_reading", pipe.perUS("wsn.uplink", pc.readings), "us")
	set("core.protocol.fetch_us_per_reading", pipe.perUS("core.protocol.fetch", pc.fetched), "us")
	set("mediator.annotate_us_per_reading", pipe.perUS("mediator.annotate", pc.fetched), "us")
	set("mediator.fail_ratio", ratio(float64(pc.failed), float64(pc.fetched)), "ratio")
	// Middleware.Ingest: mediator + core.broker + eventlog + cep merged.
	set("cep.process_us_per_event", pipe.perUS("core.middleware.ingest", pc.annotated), "us")
	set("cep.out_of_order_ratio", ratio(float64(pc.outOfOrder), float64(pc.annotated)), "ratio")
	set("ik.publish_us_per_report", pipe.perUS("ik.publish", pc.ikReports), "us")
	set("forecast.issue_us", pipe.perUS("forecast.issue", pc.issues), "us")
	set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)), "ratio")
	set("failed_frac", ratio(float64(rep.failed), float64(rep.attempted)), "ratio")
	return m, nil
}
