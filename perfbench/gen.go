package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/gateway"
	"repro/internal/ontology/drought"
	"repro/internal/rdf"
	"repro/internal/wsn"
)

// districtSlugs are the server's own district topic segments and graph
// local names (lower-cased ontology names, e.g. "feziledabi").
func districtSlugs() []string {
	var out []string
	for _, d := range drought.Districts {
		out = append(out, strings.ToLower(d.LocalName()))
	}
	return out
}

// seqHeader carries the generator's event number through the server, so
// the SSE reader and the recovered log can be matched against what was
// acked. An event's due time is its batch's due time.
const seqHeader = "seq"

// batches is one workload's publish traffic: request bodies, pre-encoded
// before the clock starts so encoding never delays the schedule.
type batches struct {
	bodies [][]byte
	per    int
	// topics[k] is event k's topic (event k rides in request k/per).
	topics []string
}

// obsBatches generates n requests of per observation envelopes on
// obs/<district>/<modality> topics, from the WSN vocabulary: each
// reading comes from a vendor channel, in that vendor's units.
func obsBatches(seed int64, n, per int) *batches {
	rng := rand.New(rand.NewSource(seed))
	vendors := wsn.BuiltinVendors()
	districts := districtSlugs()
	base := time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)
	out := &batches{per: per}
	for i := 0; i < n; i++ {
		envs := make([]gateway.Envelope, per)
		for j := range envs {
			k := i*per + j
			m := wsn.AllModalities[rng.Intn(len(wsn.AllModalities))]
			v := vendors[rng.Intn(len(vendors))]
			d := districts[rng.Intn(len(districts))]
			topic := "obs/" + d + "/" + m.String()
			payload := map[string]any{"node": fmt.Sprintf("%s-%s-%02d", v.Name, d, rng.Intn(8))}
			if ch, ok := v.Channel(m); ok {
				payload["property"] = ch.WireName
				payload["unit"] = ch.UnitName
				payload["value"] = math.Round(ch.FromCanonical(rng.Float64()*30)*1000) / 1000
			} else {
				payload["property"] = m.String()
				payload["value"] = math.Round(rng.Float64()*30000) / 1000
			}
			envs[j] = gateway.Envelope{
				Topic:   topic,
				Time:    base.Add(time.Duration(k) * time.Second),
				Payload: mustJSON(payload),
				Headers: map[string]string{seqHeader: strconv.Itoa(k)},
			}
			out.topics = append(out.topics, topic)
		}
		out.bodies = append(out.bodies, mustJSON(envs))
	}
	return out
}

// bulletin is one seeded bulletin as SemanticWeb.Deliver would write it.
type bulletin struct {
	Seq         int // IRI sequence number: obs:bulletin/<district>/<seq>
	District    string
	Issued      time.Time
	LeadDays    int
	Probability float64
}

func (b bulletin) node() rdf.IRI {
	return rdf.NSOBS.IRI(fmt.Sprintf("bulletin/%s/%d", b.District, b.Seq))
}

func (b bulletin) band() string { return forecast.BandFromProbability(b.Probability).String() }

// triples is the six-triple shape of dissemination.SemanticWeb.Deliver.
func (b bulletin) triples() []rdf.Triple {
	n := b.node()
	return []rdf.Triple{
		rdf.T(n, rdf.RDFType, rdf.NSDEWS.IRI("Bulletin")),
		rdf.T(n, rdf.NSDEWS.IRI("affectsRegion"), rdf.NSGEO.IRI(b.District)),
		rdf.T(n, rdf.NSDEWS.IRI("probability"), rdf.NewFloat(b.Probability)),
		rdf.T(n, rdf.NSDEWS.IRI("dviBand"), rdf.NewLiteral(b.band())),
		rdf.T(n, rdf.NSDEWS.IRI("leadDays"), rdf.NewInt(int64(b.LeadDays))),
		rdf.T(n, rdf.NSDEWS.IRI("issued"),
			rdf.NewTypedLiteral(b.Issued.UTC().Format(time.RFC3339), rdf.XSDDateTime)),
	}
}

// seededBulletins generates n bulletins, round-robin over the districts,
// one per district per day from 1800-01-01 — dates the simulation (which
// starts in 2010) never issues, so a (region, issued) pair names exactly
// one seeded bulletin.
func seededBulletins(seed int64, n int) []bulletin {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	districts := districtSlugs()
	base := time.Date(1800, 1, 1, 0, 0, 0, 0, time.UTC)
	leads := []int{10, 20, 30}
	out := make([]bulletin, n)
	for i := range out {
		out[i] = bulletin{
			Seq:         i + 1,
			District:    districts[i%len(districts)],
			Issued:      base.AddDate(0, 0, i/len(districts)),
			LeadDays:    leads[rng.Intn(len(leads))],
			Probability: float64(rng.Intn(1000)) / 1000,
		}
	}
	return out
}

// bulletinBatches generates n ?sync=1 publish requests of per bulletin
// envelopes on the server's bulletin/<district> topics.
func bulletinBatches(seed int64, n, per int) *batches {
	rng := rand.New(rand.NewSource(seed ^ 0xb011))
	districts := districtSlugs()
	base := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	out := &batches{per: per}
	for i := 0; i < n; i++ {
		envs := make([]gateway.Envelope, per)
		for j := range envs {
			k := i*per + j
			d := districts[rng.Intn(len(districts))]
			p := float64(rng.Intn(1000)) / 1000
			topic := core.TopicBulletin(d)
			envs[j] = gateway.Envelope{
				Topic: topic,
				Time:  base.Add(time.Duration(k) * time.Minute),
				Payload: mustJSON(map[string]any{
					"District": d, "LeadDays": 30, "Probability": p,
					"Band": forecast.BandFromProbability(p).String(),
				}),
				Headers: map[string]string{seqHeader: strconv.Itoa(k), "band": forecast.BandFromProbability(p).String()},
			}
			out.topics = append(out.topics, topic)
		}
		out.bodies = append(out.bodies, mustJSON(envs))
	}
	return out
}

// sparqlQuery is one query of the read mix with the answer the benchmark
// computed from the data it seeded.
type sparqlQuery struct {
	Kind string // "scan", "point" or "join"
	Text string
	Want string // expected result rows, canonicalised by canonRows
}

const sparqlPrefixes = "PREFIX dews: <" + string(rdf.NSDEWS) + "> PREFIX geo: <" + string(rdf.NSGEO) +
	"> PREFIX xsd: <http://www.w3.org/2001/XMLSchema#> "

// queryMix generates n queries in cycles of ten: one scan (bulletins per
// region), then point lookups (one bulletin's attributes by IRI) and joins
// (a bulletin by region and issue date) alternating. extra holds bulletins
// in the graph that were not seeded (per district), which the scan counts.
func queryMix(seed int64, n int, seeded []bulletin, extra map[string]int) []sparqlQuery {
	rng := rand.New(rand.NewSource(seed ^ 0x9e57))
	counts := map[string]int{}
	for _, b := range seeded {
		counts[b.District]++
	}
	for d, c := range extra {
		counts[d] += c
	}
	var scanRows []string
	for d, c := range counts {
		scanRows = append(scanRows, rdf.NSGEO.IRI(d).String()+"\t"+rdf.NewInt(int64(c)).String())
	}
	scan := sparqlQuery{
		Kind: "scan",
		Text: sparqlPrefixes + "SELECT ?r (COUNT(?b) AS ?n) WHERE { ?b a dews:Bulletin . ?b dews:affectsRegion ?r . } GROUP BY ?r",
		Want: canonRows(scanRows),
	}
	out := make([]sparqlQuery, 0, n)
	for i := 0; i < n; i++ {
		b := seeded[rng.Intn(len(seeded))]
		switch {
		case i%10 == 0:
			out = append(out, scan)
		case i%2 == 1:
			out = append(out, sparqlQuery{
				Kind: "point",
				Text: sparqlPrefixes + "SELECT ?p ?band ?lead WHERE { " + b.node().String() +
					" dews:probability ?p ; dews:dviBand ?band ; dews:leadDays ?lead . }",
				Want: canonRows([]string{rdf.NewFloat(b.Probability).String() + "\t" +
					rdf.NewLiteral(b.band()).String() + "\t" + rdf.NewInt(int64(b.LeadDays)).String()}),
			})
		default:
			out = append(out, sparqlQuery{
				Kind: "join",
				Text: sparqlPrefixes + "SELECT ?b ?p WHERE { ?b dews:affectsRegion geo:" + b.District +
					" . ?b dews:issued \"" + b.Issued.UTC().Format(time.RFC3339) + "\"^^xsd:dateTime . ?b dews:probability ?p . }",
				Want: canonRows([]string{b.node().String() + "\t" + rdf.NewFloat(b.Probability).String()}),
			})
		}
	}
	return out
}

// canonRows sorts result rows so answers compare independent of order.
func canonRows(rows []string) string {
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// canonResult drops the header line of a text result table and sorts
// its rows.
func canonResult(body string) string {
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) <= 1 {
		return ""
	}
	return canonRows(lines[1:])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static, marshalable values are encoded here
	}
	return b
}
