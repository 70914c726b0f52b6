package sparql

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// This file cross-checks the streaming ID-level aggregation against the
// Binding-level evaluator it replaced: the executor's solution rows are
// materialized as term Bindings, grouped by Binding.key strings and
// aggregated per group from the full row slices. Both must give the
// same rows, in the same order, for random graphs with mixed literal
// kinds and random GROUP BY/aggregate queries.

// --- Binding-level reference (the pre-streaming aggregation path) ---

// evalAggregates turns raw solution rows into grouped/aggregated rows.
// With no GROUP BY the whole result set forms one implicit group.
func evalAggregates(q *Query, rows []Binding) ([]Binding, error) {
	type group struct {
		key  Binding
		rows []Binding
	}
	var groups []*group
	if len(q.GroupBy) == 0 {
		groups = []*group{{key: Binding{}, rows: rows}}
	} else {
		index := make(map[string]*group)
		for _, r := range rows {
			k := r.key(q.GroupBy)
			g, ok := index[k]
			if !ok {
				keyBinding := make(Binding, len(q.GroupBy))
				for _, v := range q.GroupBy {
					if t, bound := r[v]; bound {
						keyBinding[v] = t
					}
				}
				g = &group{key: keyBinding}
				index[k] = g
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
		}
		// Deterministic group order.
		sort.Slice(groups, func(i, j int) bool {
			return groups[i].key.key(q.GroupBy) < groups[j].key.key(q.GroupBy)
		})
	}

	out := make([]Binding, 0, len(groups))
	for _, g := range groups {
		row := g.key.Clone()
		for _, agg := range q.Aggregates {
			val, ok, err := computeAggregate(agg, g.rows)
			if err != nil {
				return nil, err
			}
			if ok {
				row[agg.As] = val
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// computeAggregate evaluates one aggregate over a group's rows. The
// second result reports whether a value is produced (empty numeric groups
// yield unbound, matching SPARQL's error-as-unbound behaviour; COUNT of
// an empty group is 0).
func computeAggregate(agg AggSelect, rows []Binding) (rdf.Term, bool, error) {
	switch agg.Fn {
	case "COUNT":
		if agg.Star {
			return rdf.NewInt(int64(len(rows))), true, nil
		}
		if agg.Distinct {
			seen := make(map[string]bool)
			for _, r := range rows {
				if t, ok := r[agg.Arg]; ok {
					seen[t.Key()] = true
				}
			}
			return rdf.NewInt(int64(len(seen))), true, nil
		}
		n := 0
		for _, r := range rows {
			if _, ok := r[agg.Arg]; ok {
				n++
			}
		}
		return rdf.NewInt(int64(n)), true, nil
	case "SUM", "AVG":
		var sum float64
		n := 0
		for _, r := range rows {
			t, ok := r[agg.Arg]
			if !ok {
				continue
			}
			lit, ok := t.(rdf.Literal)
			if !ok {
				continue
			}
			f, ok := lit.Float()
			if !ok {
				continue
			}
			sum += f
			n++
		}
		if agg.Fn == "SUM" {
			return rdf.NewFloat(sum), true, nil
		}
		if n == 0 {
			return nil, false, nil
		}
		return rdf.NewFloat(sum / float64(n)), true, nil
	case "MIN", "MAX":
		var best Value
		have := false
		for _, r := range rows {
			t, ok := r[agg.Arg]
			if !ok {
				continue
			}
			v := termValue(t)
			if !have {
				best = v
				have = true
				continue
			}
			c, err := compareValues(v, best)
			if err != nil {
				continue // incomparable values are skipped
			}
			if (agg.Fn == "MIN" && c < 0) || (agg.Fn == "MAX" && c > 0) {
				best = v
			}
		}
		if !have {
			return nil, false, nil
		}
		return best.Term, best.Term != nil, nil
	default:
		return nil, false, fmt.Errorf("sparql: unknown aggregate %s", agg.Fn)
	}
}

// refAggregateSelect answers an aggregate SELECT the Binding-level way,
// over the same executor rows the engine streams.
func refAggregateSelect(t *testing.T, g *rdf.Graph, q *Query) *Solutions {
	t.Helper()
	prog, err := compile(q, g.Snapshot())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rows, err := evalAggregates(q, prog.collectBindings())
	if err != nil {
		t.Fatalf("reference aggregation: %v", err)
	}
	return finishRows(q, q.aggProjection(), rows)
}

// --- random graphs with mixed literal kinds, random aggregate queries ---

// refAggObject returns an object of a random kind: IRIs, subject links,
// integers, decimals, plain/lang/typed strings (some numeric-looking),
// booleans, dates, a malformed integer and a blank node. numericOnly
// restricts it to integers and decimals, whose equal values tie under
// MIN/MAX.
func refAggObject(rng *rand.Rand, numericOnly bool) rdf.Term {
	ns := rdf.Namespace("http://ref.example/")
	kind := rng.Intn(11)
	if numericOnly {
		kind = 2 + rng.Intn(3)
	}
	switch kind {
	case 0:
		return ns.IRI(fmt.Sprintf("o%d", rng.Intn(6)))
	case 1:
		return ns.IRI(fmt.Sprintf("s%d", rng.Intn(8)))
	case 2, 3:
		return rdf.NewInt(int64(rng.Intn(10)))
	case 4:
		return rdf.NewFloat(float64(rng.Intn(20)) / 2) // ties the integers half the time
	case 5:
		return rdf.NewLiteral([]string{"abc", "10", "9", " 7 "}[rng.Intn(4)])
	case 6:
		return rdf.NewLangLiteral([]string{"dry", "wet"}[rng.Intn(2)], "en")
	case 7:
		return rdf.NewBool(rng.Intn(2) == 0)
	case 8:
		return rdf.NewTypedLiteral(fmt.Sprintf("2015-0%d-01T00:00:00Z", 1+rng.Intn(9)), rdf.XSDDateTime)
	case 9:
		return rdf.NewTypedLiteral("n/a", rdf.XSDInteger)
	default:
		return rdf.BlankNode(fmt.Sprintf("b%d", rng.Intn(3)))
	}
}

func refAggGraph(rng *rand.Rand) *rdf.Graph {
	ns := rdf.Namespace("http://ref.example/")
	g := rdf.NewGraph()
	n := rng.Intn(50)
	numericOnly := rng.Intn(3) == 0
	for i := 0; i < n; i++ {
		s := ns.IRI(fmt.Sprintf("s%d", rng.Intn(8)))
		p := ns.IRI(fmt.Sprintf("p%d", rng.Intn(4)))
		g.MustAdd(rdf.T(s, p, refAggObject(rng, numericOnly)))
	}
	return g
}

// refAggVars adds "zz", bound nowhere, to the query variables.
var refAggVars = append(append([]Var(nil), refVars...), "zz")

// refAggQuery draws a random aggregate query. Half of them group a
// random WHERE clause from refQuery, which is often empty on these small
// graphs; the other half group every triple with an OPTIONAL that leaves
// ?c unbound for some rows.
func refAggQuery(rng *rand.Rand) *Query {
	q := refQuery(rng)
	if rng.Intn(2) == 0 {
		p0 := PatternTerm{Term: rdf.IRI(fmt.Sprintf("http://ref.example/p%d", rng.Intn(4)))}
		q.Where = &Group{Elements: []GroupElement{
			BGP{Patterns: []TriplePattern{{S: PatternTerm{Var: "a"}, P: PatternTerm{Var: "b"}, O: PatternTerm{Var: "x"}}}},
			Optional{Group: &Group{Elements: []GroupElement{
				BGP{Patterns: []TriplePattern{{S: PatternTerm{Var: "a"}, P: p0, O: PatternTerm{Var: "c"}}}},
			}}},
		}}
	}
	for i := rng.Intn(3); i > 0; i-- {
		q.GroupBy = append(q.GroupBy, refAggVars[rng.Intn(len(refAggVars))])
	}
	for _, v := range q.GroupBy {
		if rng.Intn(2) == 0 {
			q.Select = append(q.Select, v)
		}
	}
	fns := []string{"COUNT", "COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		a := AggSelect{
			Fn:  fns[rng.Intn(len(fns))],
			Arg: refAggVars[rng.Intn(len(refAggVars))],
			As:  Var(fmt.Sprintf("agg%d", len(q.Aggregates))),
		}
		if a.Fn == "COUNT" {
			switch rng.Intn(3) {
			case 0:
				a.Star, a.Arg = true, ""
			case 1:
				a.Distinct = true
			}
		}
		q.Aggregates = append(q.Aggregates, a)
	}
	if rng.Intn(4) == 0 {
		q.OrderBy = []OrderKey{{Expr: VarExpr{Name: "agg0"}, Descending: rng.Intn(2) == 0}}
	}
	if rng.Intn(4) == 0 {
		q.Limit = rng.Intn(3)
		q.Offset = rng.Intn(2)
	}
	return q
}

// rowKeys renders solution rows in order, each as its sorted var=term
// pairs.
func rowKeys(rows []Binding) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var parts []string
		for v, t := range r {
			parts = append(parts, string(v)+"="+t.Key())
		}
		sort.Strings(parts)
		out[i] = strings.Join(parts, " ")
	}
	return out
}

func assertSameSolutions(t *testing.T, label string, got, want *Solutions) {
	t.Helper()
	if fmt.Sprint(got.Vars) != fmt.Sprint(want.Vars) {
		t.Fatalf("%s: vars %v, reference %v", label, got.Vars, want.Vars)
	}
	g, w := rowKeys(got.Rows), rowKeys(want.Rows)
	if len(g) != len(w) {
		t.Fatalf("%s: %d rows, reference has %d\n got %q\nwant %q", label, len(g), len(w), g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: row %d differs:\n got %q\nwant %q", label, i, g[i], w[i])
		}
	}
}

// TestAggregatesMatchBindingReference: streaming ID-level aggregation and
// the Binding-level reference agree row for row (values and group order)
// on random graphs and random GROUP BY/aggregate queries. The rounds
// must cover the implicit group over empty input, unbound group keys
// and every aggregate producing a value.
func TestAggregatesMatchBindingReference(t *testing.T) {
	const rounds = 600
	var emptyImplicit, emptyGrouped, unboundKey int
	bound := map[string]int{}
	for seed := int64(0); seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := refAggGraph(rng)
		q := refAggQuery(rng)

		want := refAggregateSelect(t, g, q)
		got, err := NewEngine(g).Select(q)
		if err != nil {
			t.Fatalf("seed %d: streaming aggregation: %v", seed, err)
		}
		assertSameSolutions(t, fmt.Sprintf("seed %d (%v)", seed, q.Aggregates), got, want)

		prog, _ := compile(q, g.Snapshot())
		if len(prog.collectBindings()) == 0 {
			if len(q.GroupBy) == 0 {
				emptyImplicit++
			} else {
				emptyGrouped++
			}
		}
		for _, r := range got.Rows {
			for _, v := range q.GroupBy {
				if _, ok := r[v]; !ok && v != "zz" {
					unboundKey++
				}
			}
			for _, a := range q.Aggregates {
				if _, ok := r[a.As]; ok {
					bound[a.Fn]++
				}
			}
		}
	}
	if emptyImplicit == 0 || emptyGrouped == 0 || unboundKey == 0 {
		t.Errorf("coverage: empty implicit group %d, empty grouped %d, unbound keys %d",
			emptyImplicit, emptyGrouped, unboundKey)
	}
	for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
		if bound[fn] == 0 {
			t.Errorf("coverage: %s never produced a value", fn)
		}
	}
}

// TestAggregatesMatchBindingReferenceOnHashJoinScale: a larger graph
// pushes the join over the hash-join threshold under a grouped query
// with an OPTIONAL (sometimes unbound) group key.
func TestAggregatesMatchBindingReferenceOnHashJoinScale(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ns := rdf.Namespace("http://ref.example/")
	g := rdf.NewGraph()
	for i := 0; i < 3000; i++ {
		s := ns.IRI(fmt.Sprintf("s%d", i%400))
		g.MustAdd(rdf.T(s, ns.IRI(fmt.Sprintf("p%d", i%3)), refAggObject(rng, i%2 == 0)))
		g.MustAdd(rdf.T(s, ns.IRI("kind"), ns.IRI(fmt.Sprintf("K%d", i%5))))
		if i%7 == 0 {
			g.MustAdd(rdf.T(s, ns.IRI("tag"), rdf.NewInt(int64(i%4))))
		}
	}
	for _, src := range []string{
		`SELECT ?k ?w (COUNT(*) AS ?n) (COUNT(DISTINCT ?v) AS ?d) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg)
		   (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(?w) AS ?tagged)
		 WHERE { ?s ref:kind ?k . ?s ref:p0 ?v . OPTIONAL { ?s ref:tag ?w } } GROUP BY ?k ?w`,
		`SELECT (COUNT(?s) AS ?n) (MAX(?v) AS ?hi) WHERE { ?s ref:kind ref:K2 . ?s ref:p1 ?v . }`,
		`SELECT ?k (COUNT(?v) AS ?n) WHERE { ?s ref:kind ?k . ?s ref:p9 ?v . } GROUP BY ?k`,
		`SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) WHERE { ?s ref:p9 ?v . }`,
	} {
		q, err := Parse("PREFIX ref: <http://ref.example/>\n" + src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(g).Select(q)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSolutions(t, src, got, refAggregateSelect(t, g, q))
	}
}
