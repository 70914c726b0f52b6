package sparql

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// TestHashJoinProbesKeepScanOrder: once a pattern operator switches to
// its hash join, each probe yields the matches for its key in the order
// a scan of the pattern's constant-bound range meets them, for single-
// and multi-variable join keys alike. The solution order is pinned
// against that definition, not merely compared as a multiset.
func TestHashJoinProbesKeepScanOrder(t *testing.T) {
	ns := rdf.Namespace("http://hj.example/")
	g := rdf.NewGraph()
	uses := ns.IRI("uses")
	for i := 0; i < 200; i++ {
		s := ns.IRI(fmt.Sprintf("s%03d", i))
		for j := 0; j < 3; j++ {
			p := ns.IRI(fmt.Sprintf("p%d", (i+j)%5))
			g.MustAdd(rdf.T(s, uses, p))
			for k := 0; k < 4; k++ {
				g.MustAdd(rdf.T(s, p, rdf.NewInt(int64((i*7+k*13)%50))))
			}
		}
	}
	for _, tc := range []struct {
		name  string
		query string
		multi bool
	}{
		{"multi-slot", `SELECT * WHERE { ?s ex:uses ?p . ?s ?p ?o . }`, true},
		{"single-slot", `SELECT * WHERE { ?s ex:uses ?p . ?s ?q ?o . }`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Parse("PREFIX ex: <http://hj.example/>\n" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			snap := g.Snapshot()
			prog, err := compile(q, snap)
			if err != nil {
				t.Fatal(err)
			}
			slot := func(v Var) int { return prog.slots[v] }

			// want: for each first-pattern row in index order, the
			// constant-bound range (here the whole graph) filtered by the
			// join key, in scan order.
			var want []string
			snap.ForEachMatchID(0, mustID(t, snap, uses), 0, func(a rdf.IDTriple) bool {
				snap.ForEachMatchID(0, 0, 0, func(b rdf.IDTriple) bool {
					if b.S == a.S && (!tc.multi || b.P == a.O) {
						want = append(want, fmt.Sprint(a.S, a.O, b.P, b.O))
					}
					return true
				})
				return true
			})

			var got []string
			r := &runner{row: make([]rdf.ID, len(prog.varOf))}
			head := buildChain(prog, prog.root.elems, &sinkOp{r: r, fn: func(row []rdf.ID) bool {
				p := row[slot("p")]
				if !tc.multi {
					p = row[slot("q")]
				}
				got = append(got, fmt.Sprint(row[slot("s")], row[slot("p")], p, row[slot("o")]))
				return true
			}})
			head.feed(r)

			second := head.(*patOp).next.(*patOp)
			if !second.built || (second.byKey != nil) != tc.multi {
				t.Fatalf("second pattern: built=%v multi-slot table=%v, want a %s hash join",
					second.built, second.byKey != nil, tc.name)
			}
			if len(got) != len(want) {
				t.Fatalf("%d solutions, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("solution %d = %s, want %s (scan order)", i, got[i], want[i])
				}
			}
		})
	}
}

func mustID(t *testing.T, snap *rdf.Snapshot, term rdf.Term) rdf.ID {
	t.Helper()
	id, ok := snap.LookupID(term)
	if !ok {
		t.Fatalf("%v not in the dictionary", term)
	}
	return id
}
