package sparql

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// Engine evaluates parsed queries against an RDF graph. Every query
// runs against an immutable snapshot taken when evaluation starts, so
// evaluation is lock-free and never blocks concurrent writers.
type Engine struct {
	g    *rdf.Graph
	snap *rdf.Snapshot
}

// NewEngine returns an engine bound to a graph. Each query evaluates
// against a fresh snapshot of the graph's state at call time.
func NewEngine(g *rdf.Graph) *Engine { return &Engine{g: g} }

// NewSnapshotEngine returns an engine pinned to one immutable snapshot:
// every query sees exactly that state, regardless of later writes.
func NewSnapshotEngine(s *rdf.Snapshot) *Engine { return &Engine{snap: s} }

func (e *Engine) snapshot() *rdf.Snapshot {
	if e.snap != nil {
		return e.snap
	}
	return e.g.Snapshot()
}

// Select runs a SELECT query and returns its solutions.
//
// Solution modifiers apply in SPARQL algebra order: ORDER BY over the
// full solution rows, then projection, then DISTINCT, then OFFSET/LIMIT
// — so SELECT DISTINCT ... LIMIT n returns n distinct rows whenever
// that many exist.
func (e *Engine) Select(q *Query) (*Solutions, error) {
	if q.Form != FormSelect {
		return nil, fmt.Errorf("sparql: Select called with %s query", q.Form)
	}
	prog, err := compile(q, e.snapshot())
	if err != nil {
		return nil, err
	}

	if q.hasAggregates() {
		rows, err := aggregateRows(q, prog)
		if err != nil {
			return nil, err
		}
		return finishRows(q, q.aggProjection(), rows), nil
	}

	vars := q.Select
	if len(vars) == 0 {
		vars = collectVars(q.Where)
	}
	if len(q.OrderBy) > 0 {
		return finishRows(q, vars, prog.collectBindings()), nil
	}
	return streamSelect(q, vars, prog), nil
}

// finishRows applies the modifier pipeline to materialized rows:
// order → project → distinct → slice.
func finishRows(q *Query, vars []Var, rows []Binding) *Solutions {
	orderRows(q, rows)
	rows = projectRows(vars, rows)
	if q.Distinct {
		rows = distinctRows(vars, rows)
	}
	rows = sliceRows(q, rows)
	return &Solutions{Vars: vars, Rows: rows}
}

// streamSelect is the fast path for queries without ORDER BY or
// aggregates: projection, DISTINCT and OFFSET/LIMIT all run inside the
// streaming pipeline at the ID level, and LIMIT stops the scan early.
func streamSelect(q *Query, vars []Var, prog *program) *Solutions {
	slots := prog.slotsOf(vars)
	var (
		out     []Binding
		seen    map[string]struct{}
		keyBuf  []byte
		skipped int
	)
	if q.Distinct {
		seen = make(map[string]struct{})
	}
	prog.run(func(row []rdf.ID) bool {
		if q.Distinct {
			keyBuf = appendIDKey(keyBuf[:0], row, slots)
			if _, dup := seen[string(keyBuf)]; dup {
				return true
			}
			seen[string(keyBuf)] = struct{}{}
		}
		if skipped < q.Offset {
			skipped++
			return true
		}
		if q.Limit >= 0 && len(out) >= q.Limit {
			return false // covers LIMIT 0: never admit a row
		}
		b := make(Binding, len(vars))
		for i, s := range slots {
			if s >= 0 && row[s] != 0 {
				b[vars[i]] = prog.snap.TermOf(row[s])
			}
		}
		out = append(out, b)
		return q.Limit < 0 || len(out) < q.Limit
	})
	return &Solutions{Vars: vars, Rows: out}
}

// slotsOf maps variables to their row slots, -1 for a variable bound
// nowhere in the WHERE clause.
func (p *program) slotsOf(vars []Var) []int {
	slots := make([]int, len(vars))
	for i, v := range vars {
		if s, ok := p.slots[v]; ok {
			slots[i] = s
		} else {
			slots[i] = -1
		}
	}
	return slots
}

// appendIDKey appends the fixed-width key of the row's IDs in slots
// (4 bytes each, 0 for unbound or slot -1): equal keys are equal terms.
func appendIDKey(buf []byte, row []rdf.ID, slots []int) []byte {
	for _, s := range slots {
		var id rdf.ID
		if s >= 0 {
			id = row[s]
		}
		buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return buf
}

// Ask runs an ASK query. The scan stops at the first solution.
func (e *Engine) Ask(q *Query) (bool, error) {
	if q.Form != FormAsk {
		return false, fmt.Errorf("sparql: Ask called with %s query", q.Form)
	}
	prog, err := compile(q, e.snapshot())
	if err != nil {
		return false, err
	}
	found := false
	prog.run(func([]rdf.ID) bool {
		found = true
		return false
	})
	return found, nil
}

// Construct runs a CONSTRUCT query, returning a new graph built from the
// template. Solutions that would instantiate an invalid triple (e.g. a
// literal subject) are skipped per the SPARQL spec.
func (e *Engine) Construct(q *Query) (*rdf.Graph, error) {
	if q.Form != FormConstruct {
		return nil, fmt.Errorf("sparql: Construct called with %s query", q.Form)
	}
	prog, err := compile(q, e.snapshot())
	if err != nil {
		return nil, err
	}
	rows := prog.collectBindings()
	orderRows(q, rows)
	rows = sliceRows(q, rows)
	out := rdf.NewGraph()
	for _, b := range rows {
		for _, tp := range q.Template {
			s, ok1 := instantiate(tp.S, b)
			p, ok2 := instantiate(tp.P, b)
			o, ok3 := instantiate(tp.O, b)
			if !ok1 || !ok2 || !ok3 {
				continue
			}
			t := rdf.T(s, p, o)
			if t.Validate() == nil {
				out.MustAdd(t)
			}
		}
	}
	return out, nil
}

// Query parses and runs src, dispatching on the query form. The results
// are returned as (*Solutions) for SELECT, bool for ASK and *rdf.Graph
// for CONSTRUCT.
func (e *Engine) Query(src string) (any, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	switch q.Form {
	case FormSelect:
		return e.Select(q)
	case FormAsk:
		return e.Ask(q)
	case FormConstruct:
		return e.Construct(q)
	default:
		return nil, fmt.Errorf("sparql: unknown form %v", q.Form)
	}
}

func instantiate(pt PatternTerm, b Binding) (rdf.Term, bool) {
	if !pt.IsVar() {
		return pt.Term, true
	}
	t, ok := b[pt.Var]
	return t, ok
}

// orderPatterns sorts patterns most-selective-first: patterns with more
// concrete (or already-join-connected) positions come earlier. This is a
// static heuristic; selectivity re-estimation per join step is not needed
// at our scale.
func orderPatterns(ps []TriplePattern) []TriplePattern {
	out := make([]TriplePattern, len(ps))
	copy(out, ps)
	bound := make(map[Var]bool)
	for i := 0; i < len(out); i++ {
		best, bestScore := i, -1
		for j := i; j < len(out); j++ {
			score := 0
			for _, pt := range []PatternTerm{out[j].S, out[j].P, out[j].O} {
				if !pt.IsVar() || bound[pt.Var] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = j, score
			}
		}
		out[i], out[best] = out[best], out[i]
		for _, v := range out[i].Vars() {
			bound[v] = true
		}
	}
	return out
}

// --- modifiers ---

// orderRows sorts rows by the ORDER BY keys under SPARQL's total order
// (unbound < blank nodes < IRIs < literals); it never fails, even over
// mixed term kinds.
func orderRows(q *Query, rows []Binding) {
	if len(q.OrderBy) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range q.OrderBy {
			vi, ei := k.Expr.Eval(rows[i])
			vj, ej := k.Expr.Eval(rows[j])
			c := orderCompare(vi, ei, vj, ej)
			if c == 0 {
				continue
			}
			if k.Descending {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func projectRows(vars []Var, rows []Binding) []Binding {
	out := make([]Binding, len(rows))
	for i, r := range rows {
		proj := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := r[v]; ok {
				proj[v] = t
			}
		}
		out[i] = proj
	}
	return out
}

func distinctRows(vars []Var, rows []Binding) []Binding {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := r.key(vars)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func sliceRows(q *Query, rows []Binding) []Binding {
	if q.Offset > 0 {
		if q.Offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return rows
}

// collectVars gathers every variable mentioned in a group, in first-seen
// order (used for SELECT * and slot assignment).
func collectVars(g *Group) []Var {
	var out []Var
	seen := make(map[Var]bool)
	add := func(vs ...Var) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	var walk func(*Group)
	walk = func(g *Group) {
		for _, el := range g.Elements {
			switch el := el.(type) {
			case BGP:
				for _, tp := range el.Patterns {
					add(tp.Vars()...)
				}
			case Optional:
				walk(el.Group)
			case Union:
				for _, b := range el.Branches {
					walk(b)
				}
			case SubGroup:
				walk(el.Group)
			}
		}
	}
	walk(g)
	return out
}
