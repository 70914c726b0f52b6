package sparql

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// AggSelect is one aggregate projection: (COUNT(?x) AS ?n) or
// (AVG(?v) AS ?mean). Star marks COUNT(*).
type AggSelect struct {
	// Fn is the upper-cased aggregate name: COUNT, SUM, AVG, MIN, MAX.
	Fn string
	// Arg is the aggregated variable (ignored when Star).
	Arg Var
	// Star marks COUNT(*).
	Star bool
	// As is the output variable.
	As Var
	// Distinct marks COUNT(DISTINCT ?x).
	Distinct bool
}

// String renders the projection.
func (a AggSelect) String() string {
	arg := "?" + string(a.Arg)
	if a.Star {
		arg = "*"
	}
	if a.Distinct {
		arg = "DISTINCT " + arg
	}
	return fmt.Sprintf("(%s(%s) AS ?%s)", a.Fn, arg, a.As)
}

// hasAggregates reports whether the query needs the grouping evaluator.
func (q *Query) hasAggregates() bool {
	return len(q.Aggregates) > 0 || len(q.GroupBy) > 0
}

// aggKind is an aggregate compiled for the fold loop.
type aggKind uint8

const (
	aggUnknown aggKind = iota
	aggCountStar
	aggCount
	aggCountDistinct
	aggSum
	aggAvg
	aggMin
	aggMax
)

func kindOf(a AggSelect) aggKind {
	switch a.Fn {
	case "COUNT":
		switch {
		case a.Star:
			return aggCountStar
		case a.Distinct:
			return aggCountDistinct
		default:
			return aggCount
		}
	case "SUM":
		return aggSum
	case "AVG":
		return aggAvg
	case "MIN":
		return aggMin
	case "MAX":
		return aggMax
	}
	return aggUnknown
}

// aggAcc folds one aggregate over a group's rows without keeping them.
type aggAcc struct {
	n    int64               // rows counted, or numeric/bound arguments folded
	sum  float64             // SUM/AVG running total
	best Value               // MIN/MAX so far, valid once n > 0
	seen map[rdf.ID]struct{} // COUNT(DISTINCT ?x) argument IDs
}

// aggGroup is one group: its GROUP BY slot IDs and one accumulator per
// aggregate.
type aggGroup struct {
	key  []rdf.ID
	accs []aggAcc
}

// aggregateRows evaluates an aggregate SELECT inside the streaming
// executor. Every solution row folds into its group's accumulators at
// the ID level, so memory is O(groups), not O(rows). The group key is
// the GROUP BY slots' IDs; the dictionary interns terms by Term.Key, so
// ID equality is Key equality. Terms are decoded only for group keys,
// SUM/AVG/MIN/MAX arguments and results. With no GROUP BY the whole
// result set forms one implicit group (COUNT 0 on empty input); groups
// come out sorted by Binding.key over the group terms.
func aggregateRows(q *Query, prog *program) ([]Binding, error) {
	keySlots := prog.slotsOf(q.GroupBy)
	kinds := make([]aggKind, len(q.Aggregates))
	argSlots := make([]int, len(q.Aggregates))
	for i, a := range q.Aggregates {
		kinds[i] = kindOf(a)
		argSlots[i] = -1
		if s, ok := prog.slots[a.Arg]; ok && !a.Star {
			argSlots[i] = s
		}
	}
	newGroup := func(key []rdf.ID) *aggGroup {
		g := &aggGroup{key: key, accs: make([]aggAcc, len(kinds))}
		for i, k := range kinds {
			if k == aggCountDistinct {
				g.accs[i].seen = make(map[rdf.ID]struct{})
			}
		}
		return g
	}

	var (
		groups []*aggGroup
		index  map[string]*aggGroup
		keyBuf []byte
	)
	if len(q.GroupBy) == 0 {
		groups = []*aggGroup{newGroup(nil)}
	} else {
		index = make(map[string]*aggGroup)
	}
	snap := prog.snap
	prog.run(func(row []rdf.ID) bool {
		var g *aggGroup
		if index == nil {
			g = groups[0]
		} else {
			keyBuf = appendIDKey(keyBuf[:0], row, keySlots)
			if g = index[string(keyBuf)]; g == nil {
				key := make([]rdf.ID, len(keySlots))
				for i, s := range keySlots {
					if s >= 0 {
						key[i] = row[s]
					}
				}
				g = newGroup(key)
				index[string(keyBuf)] = g
				groups = append(groups, g)
			}
		}
		for i, k := range kinds {
			var id rdf.ID
			if s := argSlots[i]; s >= 0 {
				id = row[s]
			}
			g.accs[i].fold(k, id, snap)
		}
		return true
	})

	out := make([]Binding, len(groups))
	sortKeys := make([]string, len(groups))
	for gi, g := range groups {
		row := make(Binding, len(q.GroupBy)+len(q.Aggregates))
		for i, v := range q.GroupBy {
			if id := g.key[i]; id != 0 {
				row[v] = snap.TermOf(id)
			}
		}
		sortKeys[gi] = row.key(q.GroupBy)
		for i, agg := range q.Aggregates {
			val, ok, err := g.accs[i].result(kinds[i], agg)
			if err != nil {
				return nil, err
			}
			if ok {
				row[agg.As] = val
			}
		}
		out[gi] = row
	}
	// Deterministic group order.
	sort.Sort(byKey{rows: out, keys: sortKeys})
	return out, nil
}

// byKey sorts rows by parallel precomputed keys.
type byKey struct {
	rows []Binding
	keys []string
}

func (b byKey) Len() int           { return len(b.rows) }
func (b byKey) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byKey) Swap(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// fold adds one row's argument (id, 0 = unbound) to the accumulator.
func (a *aggAcc) fold(k aggKind, id rdf.ID, snap *rdf.Snapshot) {
	if k == aggCountStar {
		a.n++
		return
	}
	if id == 0 {
		return
	}
	switch k {
	case aggCount:
		a.n++
	case aggCountDistinct:
		a.seen[id] = struct{}{}
	case aggSum, aggAvg:
		lit, ok := snap.TermOf(id).(rdf.Literal)
		if !ok {
			return
		}
		if f, ok := lit.Float(); ok {
			a.sum += f
			a.n++
		}
	case aggMin, aggMax:
		v := termValue(snap.TermOf(id))
		if a.n == 0 {
			a.best = v
			a.n = 1
			return
		}
		c, err := compareValues(v, a.best)
		if err != nil {
			return // incomparable values are skipped
		}
		if (k == aggMin && c < 0) || (k == aggMax && c > 0) {
			a.best = v
		}
	}
}

// result returns the aggregate's value. The second result reports
// whether a value is produced (empty numeric groups yield unbound,
// matching SPARQL's error-as-unbound behaviour; COUNT of an empty group
// is 0).
func (a *aggAcc) result(k aggKind, agg AggSelect) (rdf.Term, bool, error) {
	switch k {
	case aggCountStar, aggCount:
		return rdf.NewInt(a.n), true, nil
	case aggCountDistinct:
		return rdf.NewInt(int64(len(a.seen))), true, nil
	case aggSum:
		return rdf.NewFloat(a.sum), true, nil
	case aggAvg:
		if a.n == 0 {
			return nil, false, nil
		}
		return rdf.NewFloat(a.sum / float64(a.n)), true, nil
	case aggMin, aggMax:
		if a.n == 0 {
			return nil, false, nil
		}
		return a.best.Term, a.best.Term != nil, nil
	default:
		return nil, false, fmt.Errorf("sparql: unknown aggregate %s", agg.Fn)
	}
}

// aggregateNames recognizes the aggregate keywords during parsing.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// parseAggSelect parses "(COUNT(DISTINCT? ?x|*) AS ?n)" after the opening
// '(' has been consumed.
func (p *parser) parseAggSelect() (AggSelect, error) {
	var out AggSelect
	t, err := p.next()
	if err != nil {
		return out, err
	}
	if t.kind != sKeyword || !aggregateNames[t.text] {
		return out, p.errf("expected aggregate function, got %s", t)
	}
	out.Fn = t.text
	if tok, err := p.next(); err != nil || tok.kind != sLParen {
		return out, p.errf("expected ( after %s", out.Fn)
	}
	t, err = p.peek()
	if err != nil {
		return out, err
	}
	if t.kind == sKeyword && t.text == "DISTINCT" {
		out.Distinct = true
		if _, err := p.next(); err != nil {
			return out, err
		}
		t, err = p.peek()
		if err != nil {
			return out, err
		}
	}
	switch {
	case t.kind == sStar:
		if out.Fn != "COUNT" {
			return out, p.errf("* only valid in COUNT")
		}
		out.Star = true
		if _, err := p.next(); err != nil {
			return out, err
		}
	case t.kind == sVar:
		out.Arg = Var(t.text)
		if _, err := p.next(); err != nil {
			return out, err
		}
	default:
		return out, p.errf("expected variable or * in aggregate, got %s", t)
	}
	if tok, err := p.next(); err != nil || tok.kind != sRParen {
		return out, p.errf("expected ) after aggregate argument")
	}
	if tok, err := p.next(); err != nil || tok.kind != sKeyword || tok.text != "AS" {
		return out, p.errf("expected AS in aggregate projection")
	}
	t, err = p.next()
	if err != nil {
		return out, err
	}
	if t.kind != sVar {
		return out, p.errf("expected output variable after AS")
	}
	out.As = Var(t.text)
	if tok, err := p.next(); err != nil || tok.kind != sRParen {
		return out, p.errf("expected ) closing aggregate projection")
	}
	return out, nil
}

// validateAggregates enforces the SPARQL projection rule: with grouping,
// plain projected variables must appear in GROUP BY.
func (q *Query) validateAggregates() error {
	if !q.hasAggregates() {
		return nil
	}
	grouped := make(map[Var]bool, len(q.GroupBy))
	for _, v := range q.GroupBy {
		grouped[v] = true
	}
	for _, v := range q.Select {
		if !grouped[v] {
			return fmt.Errorf("sparql: variable ?%s projected outside GROUP BY", v)
		}
	}
	names := make(map[Var]bool)
	for _, a := range q.Aggregates {
		if a.As == "" {
			return fmt.Errorf("sparql: aggregate without AS variable")
		}
		if names[a.As] || grouped[a.As] {
			return fmt.Errorf("sparql: duplicate output variable ?%s", a.As)
		}
		names[a.As] = true
	}
	return nil
}

// aggProjection returns the output variable order: group-by style plain
// vars first (in SELECT order), then aggregate outputs.
func (q *Query) aggProjection() []Var {
	out := make([]Var, 0, len(q.Select)+len(q.Aggregates))
	out = append(out, q.Select...)
	for _, a := range q.Aggregates {
		out = append(out, a.As)
	}
	return out
}
