package sparql

import (
	"fmt"
	"math"

	"repro/internal/rdf"
)

// This file implements the streaming, dictionary-encoded query executor.
//
// A parsed WHERE clause is compiled once per evaluation into a chain of
// operators that push rows of term IDs ([]rdf.ID, one slot per variable,
// 0 = unbound) from the graph snapshot towards a sink. Joins happen
// directly over IDs: each triple pattern either probes the snapshot's
// sorted indexes with its bound components (index nested-loop join) or —
// once enough rows have streamed through to amortize the build — scans
// its constant-bound range once into a hash table keyed by the shared
// (join) variables and probes that (hash join). IDs are decoded back to
// terms only at FILTER evaluation and at the projection boundary.
//
// The operator chain uses no per-row closures: every operator holds a
// pointer to the next one, and pattern operators reuse a pre-bound
// callback, so a row flowing through the chain allocates nothing.

// compile errors surface at plan time; the run itself cannot fail.
func compile(q *Query, snap *rdf.Snapshot) (*program, error) {
	p := &program{
		snap:  snap,
		slots: make(map[Var]int),
	}
	for _, v := range collectVars(q.Where) {
		p.slots[v] = len(p.varOf)
		p.varOf = append(p.varOf, v)
	}
	bound := make(map[int]bool)
	root, err := p.compileGroup(q.Where, bound)
	if err != nil {
		return nil, err
	}
	p.root = root
	return p, nil
}

// program is a compiled query: variable slot assignment plus the
// operator tree template.
type program struct {
	snap  *rdf.Snapshot
	slots map[Var]int
	varOf []Var
	root  *cGroup
}

// --- compiled (immutable) plan nodes ---

type cNode interface{ isNode() }

type cGroup struct{ elems []cNode }

func (*cGroup) isNode() {}

type cBGP struct{ pats []*cPattern }

func (*cBGP) isNode() {}

type cFilter struct{ expr Expr }

func (*cFilter) isNode() {}

type cOptional struct{ group *cGroup }

func (*cOptional) isNode() {}

type cUnion struct{ branches []*cGroup }

func (*cUnion) isNode() {}

// cPos is one compiled triple-pattern position.
type cPos struct {
	slot    int    // variable slot, or -1 for a constant
	id      rdf.ID // constant's dictionary ID (0 when missing or var)
	missing bool   // constant term absent from the dictionary
	always  bool   // variable slot definitely bound when this pattern runs
}

type cPattern struct {
	s, p, o cPos
	// keySlots are the definitely-bound variable positions — the join
	// key a hash join builds on. pos is 0/1/2 for S/P/O.
	keySlots []struct{ pos, slot int }
	// anyMissing marks a pattern that can never match this snapshot.
	anyMissing bool
}

func (p *program) compileGroup(g *Group, bound map[int]bool) (*cGroup, error) {
	out := &cGroup{}
	for _, el := range g.Elements {
		switch el := el.(type) {
		case BGP:
			out.elems = append(out.elems, p.compileBGP(el, bound))
		case Filter:
			out.elems = append(out.elems, &cFilter{expr: el.Expr})
		case Optional:
			inner, err := p.compileGroup(el.Group, copyBound(bound))
			if err != nil {
				return nil, err
			}
			out.elems = append(out.elems, &cOptional{group: inner})
		case Union:
			u := &cUnion{}
			var common map[int]bool
			for _, br := range el.Branches {
				bb := copyBound(bound)
				cb, err := p.compileGroup(br, bb)
				if err != nil {
					return nil, err
				}
				u.branches = append(u.branches, cb)
				if common == nil {
					common = bb
				} else {
					for s := range common {
						if !bb[s] {
							delete(common, s)
						}
					}
				}
			}
			for s := range common {
				bound[s] = true
			}
			out.elems = append(out.elems, u)
		case SubGroup:
			inner, err := p.compileGroup(el.Group, bound)
			if err != nil {
				return nil, err
			}
			out.elems = append(out.elems, inner)
		default:
			return nil, fmt.Errorf("sparql: unknown group element %T", el)
		}
	}
	return out, nil
}

func copyBound(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func (p *program) compileBGP(bgp BGP, bound map[int]bool) *cBGP {
	out := &cBGP{}
	for _, tp := range orderPatterns(bgp.Patterns) {
		cp := &cPattern{
			s: p.compilePos(tp.S, bound),
			p: p.compilePos(tp.P, bound),
			o: p.compilePos(tp.O, bound),
		}
		cp.anyMissing = cp.s.missing || cp.p.missing || cp.o.missing
		for i, pos := range [3]cPos{cp.s, cp.p, cp.o} {
			if pos.slot >= 0 && pos.always {
				cp.keySlots = append(cp.keySlots, struct{ pos, slot int }{i, pos.slot})
			}
		}
		out.pats = append(out.pats, cp)
		// Every variable of the pattern is definitely bound afterwards.
		for _, v := range tp.Vars() {
			bound[p.slots[v]] = true
		}
	}
	return out
}

func (p *program) compilePos(pt PatternTerm, bound map[int]bool) cPos {
	if pt.IsVar() {
		slot := p.slots[pt.Var]
		return cPos{slot: slot, always: bound[slot]}
	}
	id, ok := p.snap.LookupID(pt.Term)
	return cPos{slot: -1, id: id, missing: !ok}
}

// --- runtime operators ---

// runner carries the mutable row shared by the whole operator chain.
type runner struct {
	row []rdf.ID
}

type op interface {
	// feed processes the runner's current row, invoking downstream
	// operators for every produced solution. It must leave the row
	// exactly as it found it, and returns false to abort the run.
	feed(r *runner) bool
}

// sinkOp terminates a chain with an arbitrary consumer. The row passed
// to fn is live — the consumer must copy what it keeps.
type sinkOp struct {
	r  *runner
	fn func(row []rdf.ID) bool
}

func (s *sinkOp) feed(*runner) bool { return s.fn(s.r.row) }

// run pushes the single empty seed row through the compiled tree into
// sink, which is called once per solution with the runner's row live.
func (p *program) run(sink func(row []rdf.ID) bool) {
	r := &runner{row: make([]rdf.ID, len(p.varOf))}
	head := buildChain(p, p.root.elems, &sinkOp{r: r, fn: sink})
	head.feed(r)
}

// buildChain materializes fresh operator state for one evaluation.
func buildChain(p *program, elems []cNode, next op) op {
	for i := len(elems) - 1; i >= 0; i-- {
		switch el := elems[i].(type) {
		case *cBGP:
			for j := len(el.pats) - 1; j >= 0; j-- {
				next = newPatOp(p, el.pats[j], next)
			}
		case *cFilter:
			next = &filterOp{prog: p, expr: el.expr, next: next, scratch: make(Binding)}
		case *cOptional:
			o := &optOp{next: next}
			o.inner = buildChain(p, el.group.elems, &optSink{o: o})
			next = o
		case *cUnion:
			u := &unionOp{next: next}
			for _, br := range el.branches {
				u.heads = append(u.heads, buildChain(p, br.elems, &unionSink{u: u}))
			}
			next = u
		case *cGroup:
			next = buildChain(p, el.elems, next)
		}
	}
	return next
}

// --- triple pattern operator ---

// hashBuildAfter and hashCostDivisor tune the adaptive join: a pattern
// operator starts as an index nested-loop join (binary search per input
// row) and switches to a hash join — one scan of its constant-bound
// range, hashed on the join variables — once the rows already streamed
// through would have amortized the build (calls > range/divisor).
const (
	hashProbeMin    = 8
	hashCostDivisor = 64
)

type patOp struct {
	prog *program
	pat  *cPattern
	next op

	// adaptive join state
	calls     int
	rangeSize int // -1 until measured
	built     bool

	// hash join table (see build): the constant-bound range in scan
	// order, linked per join key through chain (-1 ends a chain). The
	// maps hold only chain ends, so they carry no pointers; byID serves
	// single-variable join keys, byKey the rest.
	table []rdf.IDTriple
	chain []int32
	byID  map[rdf.ID]hashChain
	byKey map[[3]rdf.ID]hashChain

	// pre-bound callback state (no per-row closures)
	r       *runner
	ok      bool
	cb      func(rdf.IDTriple) bool
	scratch [3]int // slots bound by the current triple, -1 terminated
}

func newPatOp(p *program, pat *cPattern, next op) op {
	o := &patOp{prog: p, pat: pat, next: next, rangeSize: -1}
	o.cb = o.bindTriple
	return o
}

func (o *patOp) feed(r *runner) bool {
	if o.pat.anyMissing {
		return true // pattern can never match: zero solutions, keep going
	}
	o.calls++
	if !o.built && len(o.pat.keySlots) > 0 && o.calls >= hashProbeMin {
		if o.rangeSize < 0 {
			o.rangeSize = o.prog.snap.CountID(o.constPattern())
		}
		if o.calls > o.rangeSize/hashCostDivisor+2*hashProbeMin && o.rangeSize <= math.MaxInt32 {
			o.build()
		}
	}
	o.r, o.ok = r, true
	if o.built {
		var (
			c  hashChain
			ok bool
		)
		if o.byID != nil {
			c, ok = o.byID[r.row[o.pat.keySlots[0].slot]]
		} else {
			var key [3]rdf.ID
			for i, ks := range o.pat.keySlots {
				key[i] = r.row[ks.slot]
			}
			c, ok = o.byKey[key]
		}
		if ok {
			for i := c.first; i >= 0; i = o.chain[i] {
				if !o.cb(o.table[i]) {
					break
				}
			}
		}
	} else {
		sv, pv, ov := o.resolve(r)
		o.prog.snap.ForEachMatchID(sv, pv, ov, o.cb)
	}
	o.r = nil
	return o.ok
}

// constPattern returns the pattern with only its constants bound.
func (o *patOp) constPattern() (rdf.ID, rdf.ID, rdf.ID) {
	var s, p, q rdf.ID
	if o.pat.s.slot < 0 {
		s = o.pat.s.id
	}
	if o.pat.p.slot < 0 {
		p = o.pat.p.id
	}
	if o.pat.o.slot < 0 {
		q = o.pat.o.id
	}
	return s, p, q
}

// resolve returns the pattern with constants and currently-bound
// variables filled in, for an index lookup.
func (o *patOp) resolve(r *runner) (rdf.ID, rdf.ID, rdf.ID) {
	get := func(pos cPos) rdf.ID {
		if pos.slot < 0 {
			return pos.id
		}
		return r.row[pos.slot]
	}
	return get(o.pat.s), get(o.pat.p), get(o.pat.o)
}

// build scans the constant-bound range once into one flat table and
// chains its triples by join key, so every further input row probes in
// O(1) and sees its matches in scan order.
func (o *patOp) build() {
	s, p, q := o.constPattern()
	o.table = make([]rdf.IDTriple, 0, o.rangeSize)
	o.prog.snap.ForEachMatchID(s, p, q, func(t rdf.IDTriple) bool {
		o.table = append(o.table, t)
		return true
	})
	o.chain = make([]int32, len(o.table))
	if len(o.pat.keySlots) == 1 {
		pos := o.pat.keySlots[0].pos
		o.byID = make(map[rdf.ID]hashChain)
		for i, t := range o.table {
			linkChain(o.byID, o.chain, component(t, pos), int32(i))
		}
	} else {
		o.byKey = make(map[[3]rdf.ID]hashChain)
		for i, t := range o.table {
			var key [3]rdf.ID
			for j, ks := range o.pat.keySlots {
				key[j] = component(t, ks.pos)
			}
			linkChain(o.byKey, o.chain, key, int32(i))
		}
	}
	o.built = true
}

// hashChain is one join key's run of table indices, first to last.
type hashChain struct{ first, last int32 }

// linkChain appends table index i to key k's chain.
func linkChain[K comparable](m map[K]hashChain, chain []int32, k K, i int32) {
	chain[i] = -1
	if c, ok := m[k]; ok {
		chain[c.last] = i
		m[k] = hashChain{first: c.first, last: i}
		return
	}
	m[k] = hashChain{first: i, last: i}
}

func component(t rdf.IDTriple, pos int) rdf.ID {
	switch pos {
	case 0:
		return t.S
	case 1:
		return t.P
	default:
		return t.O
	}
}

// bindTriple extends the current row with one matching triple, forwards
// it downstream, and backtracks. It is the pre-bound callback for both
// index scans and hash probes.
func (o *patOp) bindTriple(t rdf.IDTriple) bool {
	r := o.r
	n := 0
	for i, pos := range [3]cPos{o.pat.s, o.pat.p, o.pat.o} {
		if pos.slot < 0 {
			continue // constants match by construction of scan and build
		}
		v := component(t, i)
		if cur := r.row[pos.slot]; cur != 0 {
			if cur != v {
				// Join mismatch on a repeated or maybe-bound variable.
				for j := 0; j < n; j++ {
					r.row[o.scratch[j]] = 0
				}
				return true
			}
			continue
		}
		r.row[pos.slot] = v
		o.scratch[n] = pos.slot
		n++
	}
	ok := o.next.feed(r)
	for j := 0; j < n; j++ {
		r.row[o.scratch[j]] = 0
	}
	if !ok {
		o.ok = false
		return false
	}
	return true
}

// --- filter operator ---

type filterOp struct {
	prog    *program
	expr    Expr
	next    op
	scratch Binding
}

func (f *filterOp) feed(r *runner) bool {
	clear(f.scratch)
	f.prog.decodeInto(r.row, f.scratch)
	v, err := f.expr.Eval(f.scratch)
	if err != nil {
		return true // SPARQL: errors eliminate the solution
	}
	if ok, err := v.EBV(); err != nil || !ok {
		return true
	}
	return f.next.feed(r)
}

// --- optional (left join) operator ---

type optOp struct {
	inner   op
	next    op
	matched bool
}

func (o *optOp) feed(r *runner) bool {
	o.matched = false
	if !o.inner.feed(r) {
		return false
	}
	if !o.matched {
		return o.next.feed(r)
	}
	return true
}

type optSink struct{ o *optOp }

func (s *optSink) feed(r *runner) bool {
	s.o.matched = true
	return s.o.next.feed(r)
}

// --- union operator ---

type unionOp struct {
	heads []op
	next  op
}

func (u *unionOp) feed(r *runner) bool {
	for _, h := range u.heads {
		if !h.feed(r) {
			return false
		}
	}
	return true
}

type unionSink struct{ u *unionOp }

func (s *unionSink) feed(r *runner) bool { return s.u.next.feed(r) }

// --- decode boundary ---

// decodeInto translates a row of IDs into a term binding.
func (p *program) decodeInto(row []rdf.ID, b Binding) {
	for slot, id := range row {
		if id != 0 {
			b[p.varOf[slot]] = p.snap.TermOf(id)
		}
	}
}

// collectBindings materializes every solution as a term-level Binding
// (used by the ORDER BY and CONSTRUCT paths, which need the whole result
// set anyway).
func (p *program) collectBindings() []Binding {
	var out []Binding
	p.run(func(row []rdf.ID) bool {
		b := make(Binding, len(row))
		p.decodeInto(row, b)
		out = append(out, b)
		return true
	})
	return out
}
