package sparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// benchSensorGraph builds a synthetic sensor-description graph of about
// nTriples triples (4 per sensor): type, observed property, district and
// a numeric reading.
func benchSensorGraph(b *testing.B, nTriples int) *rdf.Graph {
	b.Helper()
	ns := rdf.Namespace("http://bench.example/")
	sensorClass := ns.IRI("Sensor")
	observes := ns.IRI("observes")
	inDistrict := ns.IRI("inDistrict")
	value := ns.IRI("value")
	props := make([]rdf.IRI, 10)
	for i := range props {
		props[i] = ns.IRI(fmt.Sprintf("prop%d", i))
	}
	districts := make([]rdf.IRI, 100)
	for i := range districts {
		districts[i] = ns.IRI(fmt.Sprintf("district%d", i))
	}
	g := rdf.NewGraph()
	for i := 0; i < nTriples/4; i++ {
		s := ns.IRI(fmt.Sprintf("sensor%d", i))
		g.MustAdd(rdf.T(s, rdf.RDFType, sensorClass))
		g.MustAdd(rdf.T(s, observes, props[i%len(props)]))
		g.MustAdd(rdf.T(s, inDistrict, districts[i%len(districts)]))
		g.MustAdd(rdf.T(s, value, rdf.NewFloat(float64(i%1000))))
	}
	return g
}

// benchJoinQuery is a 4-pattern join plus numeric FILTER: "sensors for
// property prop3 in district13 with a high reading". district13 sensors
// are a subset of prop3 sensors (i%100==13 implies i%10==3) so every
// pattern narrows the result.
const benchJoinQuery = `
PREFIX ex: <http://bench.example/>
SELECT ?s ?v WHERE {
  ?s a ex:Sensor .
  ?s ex:observes ex:prop3 .
  ?s ex:inDistrict ex:district13 .
  ?s ex:value ?v .
  FILTER(?v >= 500)
}`

func benchSPARQLJoin(b *testing.B, nTriples int) {
	g := benchSensorGraph(b, nTriples)
	q, err := Parse(benchJoinQuery)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(g)
	// Sanity: the query must actually select something.
	sol, err := e.Select(q)
	if err != nil {
		b.Fatal(err)
	}
	if nTriples >= 100_000 && len(sol.Rows) == 0 {
		b.Fatal("benchmark query selects nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPARQLJoin1k(b *testing.B)   { benchSPARQLJoin(b, 1_000) }
func BenchmarkSPARQLJoin100k(b *testing.B) { benchSPARQLJoin(b, 100_000) }

// benchBulletinGraph builds nBulletins bulletins in the six-triple shape
// dissemination.SemanticWeb.Deliver writes (type, region, probability,
// DVI band, lead days, issue time), round-robin over five regions.
func benchBulletinGraph(b *testing.B, nBulletins int) *rdf.Graph {
	b.Helper()
	regions := []string{"mangaung", "xhariep", "lejweleputswa", "thabo-mofutsanyana", "fezile-dabi"}
	bands := []string{"normal", "mild", "moderate", "severe", "extreme"}
	bulletin := rdf.NSDEWS.IRI("Bulletin")
	g := rdf.NewGraph()
	for i := 0; i < nBulletins; i++ {
		region := regions[i%len(regions)]
		node := rdf.NSOBS.IRI(fmt.Sprintf("bulletin/%s/%d", region, i+1))
		if err := g.AddAll(
			rdf.T(node, rdf.RDFType, bulletin),
			rdf.T(node, rdf.NSDEWS.IRI("affectsRegion"), rdf.NSGEO.IRI(region)),
			rdf.T(node, rdf.NSDEWS.IRI("probability"), rdf.NewFloat(float64(i%997)/997)),
			rdf.T(node, rdf.NSDEWS.IRI("dviBand"), rdf.NewLiteral(bands[i%len(bands)])),
			rdf.T(node, rdf.NSDEWS.IRI("leadDays"), rdf.NewInt(int64(7+i%3*7))),
			rdf.T(node, rdf.NSDEWS.IRI("issued"), rdf.NewTypedLiteral(
				fmt.Sprintf("2015-%02d-%02dT00:00:00Z", 1+i/28%12, 1+i%28), rdf.XSDDateTime)),
		); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// benchGroupByQuery is the benchmark's "scan" query: bulletins per region.
const benchGroupByQuery = `
PREFIX dews: <http://dews.africrid.example/ontology/drought#>
SELECT ?r (COUNT(?b) AS ?n) WHERE { ?b a dews:Bulletin . ?b dews:affectsRegion ?r . } GROUP BY ?r`

// BenchmarkSPARQLGroupBy100k runs the GROUP BY/COUNT scan over 100k
// bulletins (600k triples).
func BenchmarkSPARQLGroupBy100k(b *testing.B) {
	const n = 100_000
	g := benchBulletinGraph(b, n)
	q, err := Parse(benchGroupByQuery)
	if err != nil {
		b.Fatal(err)
	}
	e := NewSnapshotEngine(g.Snapshot())
	sol, err := e.Select(q)
	if err != nil {
		b.Fatal(err)
	}
	if len(sol.Rows) != 5 || sol.Rows[0]["n"].(rdf.Literal).Lexical != fmt.Sprint(n/5) {
		b.Fatalf("benchmark query answered %v", sol.Rows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Select(q); err != nil {
			b.Fatal(err)
		}
	}
}
