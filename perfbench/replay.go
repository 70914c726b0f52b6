package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/climate"
	"repro/internal/core"
	"repro/internal/dews"
	"repro/internal/dissemination"
	"repro/internal/eventlog"
	"repro/internal/forecast"
	"repro/internal/gateway"
	"repro/internal/graphlog"
	"repro/internal/ik"
	"repro/internal/rdf"
	"repro/internal/sparql"
	"repro/internal/wsn"
)

// The replays feed a workload's generated inputs through each layer's
// public functions, with a span around every call, on components that
// dews.NewSystem builds or that the benchmark assembles the way it does.
// Where one layer is only reachable through another's function the span
// covers the outer call; README.md names the merged layers.

// standingSubscriptions registers what System.Run leaves subscribed on
// the broker a running server publishes into: one obs/# queue and one
// event queue per district, so fan-out costs match the server's.
func standingSubscriptions(b *core.Broker) ([]*core.Subscription, error) {
	obs, err := b.Subscribe("obs/#", 1<<20, core.DropOldest)
	if err != nil {
		return nil, err
	}
	subs := []*core.Subscription{obs}
	for _, d := range districtSlugs() {
		s, err := b.Subscribe("event/"+d+"/#", 65536, core.DropOldest)
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// durableBroker opens an event log in dir and attaches it to a new
// broker with the server's retained-topic limit.
func durableBroker(dir string) (*core.Broker, *eventlog.Log, error) {
	l, err := eventlog.Open(eventlog.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	b := core.NewBroker()
	b.SetRetainedLimit(8192)
	if _, err := b.AttachLog(l); err != nil {
		l.Close()
		return nil, nil, err
	}
	return b, l, nil
}

// pipelineCounts are the work counts of one pipeline replay.
type pipelineCounts struct {
	readings, fetched, annotated, failed int
	outOfOrder, ikReports, issues        int
	bulletins                            int
	walBytes                             int64
	committed                            uint64
}

// replayDistrict is one district's sensor side, built as NewSystem
// builds it; the system's own is not reachable from outside.
type replayDistrict struct {
	name    string
	days    []climate.Day
	truth   *climate.Truth
	fleet   *wsn.Fleet
	gw      *wsn.Gateway
	reports []ik.Report
	next    int
}

// dayFeed is a reading source that hands Middleware.Ingest the readings
// the replay fetched itself, so the fetch has a span of its own.
// Middleware.Ingest(0) asks for everything, so limit is not needed.
type dayFeed struct{ raw []wsn.RawReading }

func (f *dayFeed) Download(cursor, _ int) ([]wsn.RawReading, int, error) {
	out := f.raw
	f.raw = nil
	return out, cursor + len(out), nil
}

// referenceRun is an untraced System.Run of the scenario with its
// forecast issues recorded: the replay takes the forecast inputs from it
// and must reproduce its bulletins.
func referenceRun(seed int64, years, train int) (*dews.Result, error) {
	sys, err := dews.NewSystem(dews.Config{Seed: seed, Years: years, TrainYears: train, RecordIssues: true})
	if err != nil {
		return nil, err
	}
	res, err := sys.Run()
	return res, errors.Join(err, sys.Close())
}

// replayPipeline drives the paper pipeline day by day through the calls
// System.Run makes — Node.Sample + wsn.Gateway.Ingest, ProtocolLayer.FetchAll,
// Middleware.Ingest, Middleware.PublishIKReports, the five forecasters,
// forecast.MakeBulletin, Hub.Publish, the bulletin broker publish and
// the DVI map update — with a span per stage and day. The middleware,
// event log, graph store and DVI map are a dews.NewSystem's; the sensor
// side and the hub are built the way NewSystem builds them. Forecast
// features come from ref's recorded issues (the feature builder is
// internal to dews), and every bulletin must equal ref's.
func replayPipeline(tr *tracer, dir string, seed int64, years, train int, ref *dews.Result) (pc pipelineCounts, err error) {
	cfg := dews.Config{Seed: seed, Years: years, TrainYears: train,
		LogDir: filepath.Join(dir, "log"), GraphDir: filepath.Join(dir, "graph")}
	sys, err := dews.NewSystem(cfg)
	if err != nil {
		return pc, err
	}
	defer func() { err = errors.Join(err, sys.Close()) }()
	mw, store := sys.Middleware(), sys.GraphStore()
	feed := &dayFeed{}
	if err := mw.Protocol().AddSource("replay-feed", feed); err != nil {
		return pc, err
	}

	var req int64
	commit := func(ts ...rdf.Triple) error {
		s := tr.begin("graphlog.commit", req)
		err := store.AddAll(ts...)
		tr.end(s)
		return err
	}
	hub := dissemination.NewHub()
	sms := dissemination.NewSMSBroadcast()
	for _, c := range []struct {
		ch   dissemination.Channel
		band forecast.DVIBand
	}{
		{dissemination.NewSmartBillboard(), forecast.DVINormal},
		{sms, forecast.DVIWarning},
		{dissemination.NewIPRadio("st"), forecast.DVIWatch},
		{dissemination.NewPersistentSemanticWeb(store.Graph(), commit), forecast.DVINormal},
	} {
		if err := hub.Register(c.ch, c.band); err != nil {
			return pc, err
		}
	}

	const lead = 30 // dews.Config default
	totalDays, trainDays := 365*years, 365*train
	fetch := core.NewProtocolLayer()
	var ds []*replayDistrict
	for di, name := range districtSlugs() {
		dseed := seed + int64(di)*101
		s := tr.begin("climate.generate", int64(di))
		gen, err := climate.NewGenerator(climate.DefaultParams(dseed))
		if err != nil {
			return pc, err
		}
		d := &replayDistrict{name: name, days: gen.GenerateDays(totalDays)}
		tr.end(s)
		if d.truth, err = climate.Label(d.days, 90); err != nil {
			return pc, err
		}
		pool, err := ik.NewInformantPool(8, seed+int64(len(name)))
		if err != nil {
			return pc, err
		}
		d.reports, err = ik.GenerateReports(ik.GeneratorConfig{Pool: pool, District: name, ReportRate: 0.02, Seed: seed + 7}, d.days, d.truth)
		if err != nil {
			return pc, err
		}
		var trainReports []ik.Report
		for _, r := range d.reports {
			if r.Time.Before(d.days[0].Date.AddDate(0, 0, trainDays)) {
				trainReports = append(trainReports, r)
			}
		}
		if _, err := ik.ScoreReports(trainReports, d.days, d.truth, mw.IKTracker()); err != nil {
			return pc, err
		}
		cloud := wsn.NewCloudStore()
		d.gw = wsn.NewGateway(wsn.NewLink(wsn.LinkConfig{LossRate: 0.15, CorruptRate: 0.03, MaxRetries: 4, Seed: dseed + 1}), cloud)
		if d.fleet, err = wsn.NewFleet(4, []string{name}, dseed+2); err != nil {
			return pc, err
		}
		for _, n := range d.fleet.Nodes {
			d.gw.Register(n)
		}
		if err := fetch.AddSource("cloud-"+name, cloud); err != nil {
			return pc, err
		}
		if err := sms.Subscribe(name, fmt.Sprintf("+27-51-%04d", di)); err != nil {
			return pc, err
		}
		ds = append(ds, d)
	}
	subs, err := standingSubscriptions(mw.Broker())
	if err != nil {
		return pc, err
	}

	// The forecasters System.Run uses in its evaluation period, with
	// ref's calibration; Fused makes the bulletins.
	ikOnly := forecast.IKOnly{BaseRate: ref.TrainBase}
	sensor := ref.CalibratedSensor
	forecasters := []forecast.Forecaster{
		forecast.Climatology{BaseRate: ref.TrainBase}, forecast.Persistence{}, &sensor, ikOnly,
		forecast.Fused{Sensor: sensor, IK: ikOnly},
	}
	verifs := make([]forecast.Verification, len(forecasters))
	type issueKey struct {
		district string
		date     time.Time
	}
	issues := make(map[issueKey]dews.Issue, len(ref.Issues))
	for _, is := range ref.Issues {
		issues[issueKey{is.District, is.Features.Date}] = is
	}

	for day := 0; day < totalDays; day++ {
		req = int64(day)
		root := tr.begin("pipeline.day", req)
		s := tr.begin("wsn.uplink", req)
		for _, d := range ds {
			for _, n := range d.fleet.Nodes {
				if rs := n.Sample(d.days[day]); len(rs) > 0 {
					pc.readings += len(rs)
					if err := d.gw.Ingest(rs); err != nil {
						return pc, err
					}
				}
			}
		}
		tr.end(s)

		s = tr.begin("core.protocol.fetch", req)
		raw, err := fetch.FetchAll(0)
		tr.end(s)
		if err != nil {
			return pc, err
		}
		// A second AnnotateBatch of the same readings, for its own span;
		// Middleware.Ingest annotates them again.
		s = tr.begin("mediator.annotate", req)
		_, failed := mw.Segment().Annotator().AnnotateBatch(raw)
		tr.end(s)
		pc.failed += failed

		feed.raw = raw
		s = tr.begin("core.middleware.ingest", req)
		rep, err := mw.Ingest(0)
		tr.end(s)
		if err != nil {
			return pc, err
		}
		pc.fetched += rep.Fetched
		pc.annotated += rep.Annotated
		pc.outOfOrder += rep.OutOfOrder

		for _, d := range ds {
			var due []ik.Report
			for d.next < len(d.reports) && !d.reports[d.next].Time.After(d.days[day].Date) {
				due = append(due, d.reports[d.next])
				d.next++
			}
			if len(due) > 0 {
				s = tr.begin("ik.publish", req)
				_, err := mw.PublishIKReports(due)
				tr.end(s)
				if err != nil {
					return pc, err
				}
				pc.ikReports += len(due)
			}
		}
		for _, sub := range subs {
			sub.Poll(0)
		}

		if day >= trainDays {
			for _, d := range ds {
				is, ok := issues[issueKey{d.name, d.days[day].Date}]
				if !ok {
					continue // past the last verifiable day
				}
				s = tr.begin("forecast.issue", req)
				for i, fc := range forecasters {
					p := fc.Forecast(is.Features)
					verifs[i].Brier.Add(p, is.Observed)
					verifs[i].Contingency.Add(p >= 0.5, is.Observed)
				}
				var b forecast.Bulletin
				if day%7 == 0 {
					b = forecast.MakeBulletin(d.name, is.Features, forecasters[4], lead)
				}
				tr.end(s)
				pc.issues++
				if day%7 != 0 {
					continue
				}
				if pc.bulletins >= len(ref.Bulletins) || !reflect.DeepEqual(b, ref.Bulletins[pc.bulletins]) {
					return pc, fmt.Errorf("bulletin %d for %s on day %d differs from System.Run's", pc.bulletins, d.name, day)
				}
				if err := publishBulletin(tr, sys, hub, b, req); err != nil {
					return pc, err
				}
				pc.bulletins++
			}
		}
		tr.end(root)
	}
	if pc.fetched != ref.Fetched || pc.annotated != ref.Annotated || pc.bulletins != len(ref.Bulletins) {
		return pc, fmt.Errorf("replay fetched %d, annotated %d, issued %d bulletins; System.Run: %d, %d, %d",
			pc.fetched, pc.annotated, pc.bulletins, ref.Fetched, ref.Annotated, len(ref.Bulletins))
	}
	gst := store.Stats()
	pc.walBytes, pc.committed = gst.WALBytes, gst.Appended
	return pc, nil
}

// publishBulletin disseminates b as System.Run does: Hub.Publish (with
// the graph commit spanned inside it), a broker publish on the
// bulletin topic and the DVI map update.
func publishBulletin(tr *tracer, sys *dews.System, hub *dissemination.Hub, b forecast.Bulletin, req int64) error {
	s := tr.begin("dissemination.hub_publish", req)
	err := hub.Publish(b)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("core.broker.publish_bulletin", req)
	_, err = sys.Middleware().Broker().Publish(core.Message{
		Topic: core.TopicBulletin(b.District), Time: b.Issued, Payload: b,
		Headers: map[string]string{"band": b.Band.String()},
	})
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("forecast.dvi_update", req)
	err = sys.DVIMap().Update(b)
	tr.end(s)
	return err
}

// publishBatch is Broker.PublishBatch under a span. With a log attached
// the span also covers the log append (core.broker merged with eventlog).
func publishBatch(tr *tracer, b *core.Broker, msgs []core.Message, req int64) error {
	s := tr.begin("core.broker.publish_batch", req)
	_, err := b.PublishBatch(msgs)
	tr.end(s)
	return err
}

// decodeBatch decodes a /publish body the way the gateway does: the
// envelope array, then each payload into generic JSON values.
func decodeBatch(body []byte, now time.Time) ([]core.Message, []gateway.Envelope, error) {
	var envs []gateway.Envelope
	if err := json.Unmarshal(body, &envs); err != nil {
		return nil, nil, err
	}
	msgs := make([]core.Message, len(envs))
	for i, e := range envs {
		m := core.Message{Topic: e.Topic, Time: e.Time, Headers: e.Headers}
		if m.Time.IsZero() {
			m.Time = now
		}
		if len(e.Payload) > 0 {
			var v any
			if err := json.Unmarshal(e.Payload, &v); err != nil {
				return nil, nil, err
			}
			m.Payload = v
		}
		msgs[i] = m
	}
	return msgs, envs, nil
}

type pathCounts struct {
	events, syncs int
	fsyncs        uint64
}

// replayPublishPath sends the request bodies of traffic through
// the gateway's decoding, Broker.PublishBatch on a broker with an
// attached log and the server's standing subscriptions, and Log.Sync —
// the ?sync=1 publish path — then appends the same records straight to a
// second log with Log.AppendBatch.
func replayPublishPath(tr *tracer, dir string, traffic *batches) (pathCounts, error) {
	var pc pathCounts
	br, l, err := durableBroker(filepath.Join(dir, "log"))
	if err != nil {
		return pc, err
	}
	defer l.Close()
	if _, err := standingSubscriptions(br); err != nil {
		return pc, err
	}
	f0 := l.Stats().Fsyncs
	var envs [][]gateway.Envelope
	for i := range traffic.bodies {
		req := int64(i)
		root := tr.begin("publish.request", req)
		s := tr.begin("gateway.decode", req)
		msgs, e, err := decodeBatch(traffic.bodies[i], time.Now())
		tr.end(s)
		if err != nil {
			return pc, err
		}
		envs = append(envs, e)
		if err := publishBatch(tr, br, msgs, req); err != nil {
			return pc, err
		}
		s = tr.begin("eventlog.sync", req)
		err = l.Sync()
		tr.end(s)
		if err != nil {
			return pc, err
		}
		tr.end(root)
		pc.events += len(msgs)
		pc.syncs++
	}
	pc.fsyncs = l.Stats().Fsyncs - f0

	l2, err := eventlog.Open(eventlog.Config{Dir: filepath.Join(dir, "append")})
	if err != nil {
		return pc, err
	}
	defer l2.Close()
	for i, batch := range envs {
		recs := make([]eventlog.Record, len(batch))
		for j, e := range batch {
			recs[j] = eventlog.Record{Topic: e.Topic, Time: e.Time, Payload: e.Payload, Headers: e.Headers}
		}
		s := tr.begin("eventlog.append", int64(i))
		_, _, err := l2.AppendBatch(recs)
		tr.end(s)
		if err != nil {
			return pc, err
		}
	}
	return pc, nil
}

type queryCounts struct {
	queries, rows  int
	triples, terms int
}

// replayStartupQueries opens a server's directories the way NewSystem
// does — eventlog.Open + Broker.AttachLog, graphlog.Open — then runs qs
// against the opened graph: sparql.Parse, Graph.Snapshot and a snapshot
// engine's Select, each under a span.
func replayStartupQueries(tr *tracer, logDir, graphDir string, qs []sparqlQuery) (qc queryCounts, err error) {
	s := tr.begin("eventlog.open", 0)
	l, err := eventlog.Open(eventlog.Config{Dir: logDir})
	tr.end(s)
	if err != nil {
		return qc, err
	}
	br := core.NewBroker()
	br.SetRetainedLimit(8192)
	s = tr.begin("core.broker.attach_log", 0)
	_, err = br.AttachLog(l)
	tr.end(s)
	if err = errors.Join(err, l.Close()); err != nil {
		return qc, err
	}
	s = tr.begin("graphlog.open", 0)
	st, err := graphlog.Open(graphlog.Config{Dir: graphDir, CheckpointInterval: -1})
	tr.end(s)
	if err != nil {
		return qc, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	g := st.Graph()
	for i, q := range qs {
		req := int64(i)
		root := tr.begin("sparql.request", req)
		s := tr.begin("sparql.parse", req)
		pq, err := sparql.Parse(q.Text)
		tr.end(s)
		if err != nil {
			return qc, err
		}
		s = tr.begin("rdf.snapshot", req)
		snap := g.Snapshot()
		tr.end(s)
		s = tr.begin("sparql.exec."+q.Kind, req)
		sol, err := sparql.NewSnapshotEngine(snap).Select(pq)
		tr.end(s)
		if err != nil {
			return qc, err
		}
		tr.end(root)
		qc.queries++
		qc.rows += len(sol.Rows)
	}
	gs := st.Stats()
	qc.triples, qc.terms = gs.Triples, gs.DictTerms
	return qc, nil
}

// httpPointQueries serves the graph in graphDir through the semantic-web
// channel's HTTP handler in process and returns the time of each point
// query of qs over HTTP, in ms.
func httpPointQueries(graphDir string, qs []sparqlQuery) (out []float64, err error) {
	st, err := graphlog.Open(graphlog.Config{Dir: graphDir, CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	web := dissemination.NewPersistentSemanticWeb(st.Graph(), st.AddAll)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: web}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		err = errors.Join(err, hs.Close())
		if serr := <-served; serr != http.ErrServerClosed {
			err = errors.Join(err, serr)
		}
	}()
	c := oneConn()
	defer c.CloseIdleConnections()
	for _, q := range qs {
		if q.Kind != "point" {
			continue
		}
		t0 := time.Now()
		if _, err := getText(c, "http://"+ln.Addr().String()+"/sparql?query="+url.QueryEscape(q.Text)); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// graphBulletins reads the bulletins a graph holds back into the
// generator's form, so queries can be made against any run's graph.
func graphBulletins(graphDir string) (out []bulletin, err error) {
	st, err := graphlog.Open(graphlog.Config{Dir: graphDir, CheckpointInterval: -1})
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	g := st.Graph()
	lexical := func(node rdf.IRI, prop string) string {
		if t, ok := g.FirstObject(node, rdf.NSDEWS.IRI(prop)); ok {
			if l, ok := t.(rdf.Literal); ok {
				return l.Lexical
			}
		}
		return ""
	}
	prefix := string(rdf.NSOBS) + "bulletin/"
	for _, t := range g.Match(nil, rdf.RDFType, rdf.NSDEWS.IRI("Bulletin")) {
		node, ok := t.S.(rdf.IRI)
		if !ok || !strings.HasPrefix(string(node), prefix) {
			continue
		}
		parts := strings.Split(strings.TrimPrefix(string(node), prefix), "/")
		if len(parts) != 2 {
			continue
		}
		b := bulletin{District: parts[0]}
		var e1, e2, e3, e4 error
		b.Seq, e1 = strconv.Atoi(parts[1])
		b.Probability, e2 = strconv.ParseFloat(lexical(node, "probability"), 64)
		b.LeadDays, e3 = strconv.Atoi(lexical(node, "leadDays"))
		b.Issued, e4 = time.Parse(time.RFC3339, lexical(node, "issued"))
		if errors.Join(e1, e2, e3, e4) == nil {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	if len(out) == 0 {
		return nil, fmt.Errorf("no bulletins in %s", graphDir)
	}
	return out, nil
}
