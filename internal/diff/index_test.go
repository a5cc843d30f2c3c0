package diff_test

import (
	"fmt"
	"testing"

	"txmldb/internal/diff"
	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// storedScript passes s through the version store's at-rest form: ToXML,
// Marshal, Unmarshal, FromXML.
func storedScript(t *testing.T, s *diff.Script) *diff.Script {
	t.Helper()
	tree, err := xmltree.Unmarshal(xmltree.Marshal(s.ToXML()))
	if err != nil {
		t.Fatal(err)
	}
	back, err := diff.FromXML(tree)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// sameIndex fails unless the kept index maps exactly the XIDs a fresh
// index of tree maps, to the same nodes.
func sameIndex(t *testing.T, step string, kept *diff.Index, tree *xmltree.Node) {
	t.Helper()
	got, want := diff.IndexNodes(kept), diff.IndexNodes(diff.NewIndex(tree))
	if len(got) != len(want) {
		t.Fatalf("%s: kept index has %d entries, fresh has %d", step, len(got), len(want))
	}
	for x, n := range want {
		if got[x] != n {
			t.Fatalf("%s: kept index maps XID %d to %p, fresh to %p", step, x, got[x], n)
		}
	}
}

// TestIndexKeptAcrossReplay replays a generated history whose deltas
// delete, move and insert whole restaurant subtrees, forward from the first
// version and then backward (where deletes turn into re-inserts), through
// one Index. After every step the tree must be the expected version and
// the kept index must equal a freshly built one.
func TestIndexKeptAcrossReplay(t *testing.T) {
	g := tdocgen.New(tdocgen.Config{
		Seed: 11, InitialElems: 6, Versions: 40, OpsPerVersion: 3,
		UpdateWeight: 2, InsertWeight: 2, DeleteWeight: 2, MoveWeight: 2,
	})
	hist := g.History(0)
	var next model.XID
	alloc := func() model.XID { next++; return next }
	versions := []*xmltree.Node{hist[0].Tree.Clone()}
	diff.AssignXIDs(versions[0], alloc, hist[0].At)
	var scripts []*diff.Script
	var total diff.Stats
	for i := 1; i < len(hist); i++ {
		s, res, err := diff.Diff(versions[i-1], hist[i].Tree.Clone(), diff.Options{
			Alloc: alloc, Stamp: hist[i].At, FromStamp: hist[i-1].At,
			FromVer: model.VersionNo(i), ToVer: model.VersionNo(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		total.Inserts += st.Inserts
		total.Deletes += st.Deletes
		total.Moves += st.Moves
		versions = append(versions, res)
		scripts = append(scripts, storedScript(t, s))
	}
	if total.Inserts == 0 || total.Deletes == 0 || total.Moves == 0 {
		t.Fatalf("history lacks subtree edits: %+v", total)
	}

	tree := versions[0].Clone()
	idx := diff.NewIndex(tree)
	check := func(step string, want *xmltree.Node) {
		t.Helper()
		if !xmltree.Equal(tree, want) {
			t.Fatalf("%s: tree differs from the expected version", step)
		}
		sameIndex(t, step, idx, tree)
	}
	for i, s := range scripts {
		if err := idx.Apply(s); err != nil {
			t.Fatalf("forward %d→%d: %v", i+1, i+2, err)
		}
		check(fmt.Sprintf("forward to version %d", i+2), versions[i+1])
	}
	for i := len(scripts) - 1; i >= 0; i-- {
		if err := idx.Apply(scripts[i].Invert()); err != nil {
			t.Fatalf("backward %d→%d: %v", i+2, i+1, err)
		}
		check(fmt.Sprintf("backward to version %d", i+1), versions[i])
	}
}
