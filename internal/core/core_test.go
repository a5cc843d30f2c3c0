package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/resilience"
	"txmldb/internal/store"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

var (
	jan1  = model.Date(2001, 1, 1)
	jan15 = model.Date(2001, 1, 15)
	jan26 = model.Date(2001, 1, 26)
	jan31 = model.Date(2001, 1, 31)
	feb10 = model.Date(2001, 2, 10)
)

const guideURL = "http://guide.com/restaurants.xml"

func guide(entries ...[2]string) *xmltree.Node {
	g := xmltree.NewElement("guide")
	for _, e := range entries {
		g.AppendChild(xmltree.Elem("restaurant",
			xmltree.ElemText("name", e[0]),
			xmltree.ElemText("price", e[1])))
	}
	return g
}

// openFigure1 loads the paper's Figure 1 history: the restaurant list at
// guide.com as retrieved on January 1st (Napoli/15), January 15th
// (Napoli/15 + Akropolis/13) and January 31st (Napoli/18).
func openFigure1(t testing.TB, cfg Config) (*DB, model.DocID) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = func() model.Time { return feb10 }
	}
	db := Open(cfg)
	id, err := db.Put(guideURL, guide([2]string{"Napoli", "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "15"}, [2]string{"Akropolis", "13"}), jan15); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "18"}), jan31); err != nil {
		t.Fatal(err)
	}
	return db, id
}

func restaurantPattern() *pattern.PNode {
	r := &pattern.PNode{Name: "restaurant", Rel: pattern.Child, Project: true}
	return &pattern.PNode{Name: "guide", Rel: pattern.Child, Children: []*pattern.PNode{r}}
}

// TestFigure1Q1 reproduces Q1: list all restaurants as of 26/01/2001
// (operators: TPatternScan followed by Reconstruct).
func TestFigure1Q1(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	teids, err := db.TPatternScan(restaurantPattern(), jan26)
	if err != nil {
		t.Fatal(err)
	}
	if len(teids) != 2 {
		t.Fatalf("TPatternScan at 26/01: %d TEIDs, want 2", len(teids))
	}
	var names []string
	for _, teid := range teids {
		n, err := db.Reconstruct(teid)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n.SelectPath("name")[0].Text())
	}
	want := map[string]bool{"Napoli": true, "Akropolis": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected restaurant %q", n)
		}
		delete(want, n)
	}
	if len(want) != 0 {
		t.Errorf("missing restaurants: %v", want)
	}
}

// TestFigure1Q1Language runs Q1 through the query language.
func TestFigure1Q1Language(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT R FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("Q1 rows = %d, want 2", len(res.Rows))
	}
	doc := res.Doc()
	if doc.Name != "results" || len(doc.ChildElements("result")) != 2 {
		t.Fatalf("Q1 result doc = %s", doc)
	}
	s := doc.String()
	for _, frag := range []string{"Napoli", "Akropolis", "15", "13"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Q1 output missing %q: %s", frag, s)
		}
	}
	if strings.Contains(s, "18") {
		t.Errorf("Q1 output leaked the January 31 price: %s", s)
	}
}

// TestFigure1Q2 reproduces Q2: the number of restaurants at 26/01/2001,
// with NO reconstruction (the paper's key observation in Section 6.2).
func TestFigure1Q2(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT SUM(R) FROM doc("http://guide.com/restaurants.xml")[26/01/2001]/restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("Q2 rows = %d", len(res.Rows))
	}
	if got := res.Rows[0][0].(int64); got != 2 {
		t.Fatalf("Q2 = %d, want 2", got)
	}
	if res.Metrics.Reconstructions != 0 {
		t.Fatalf("Q2 performed %d reconstructions, want 0 (Section 6.2)", res.Metrics.Reconstructions)
	}
}

// TestFigure1Q3 reproduces Q3: the price history of restaurant Napoli
// (operator: TPatternScanAll).
func TestFigure1Q3(t *testing.T) {
	db, _ := openFigure1(t, Config{})
	res, err := db.Query(`SELECT TIME(R), R/price FROM doc("http://guide.com/restaurants.xml")[EVERY]/restaurant R WHERE R/name="Napoli"`)
	if err != nil {
		t.Fatal(err)
	}
	// Napoli's element versions: created at jan1 (price 15), price change
	// at jan31 (price 18). The jan15 document version did not touch it.
	if len(res.Rows) != 2 {
		t.Fatalf("Q3 rows = %d, want 2: %v", len(res.Rows), res.Rows)
	}
	got := map[model.Time]string{}
	for _, row := range res.Rows {
		at := row[0].(model.Time)
		prices := row[1].([]plan.Elem)
		if len(prices) != 1 {
			t.Fatalf("Q3 price column = %v", row[1])
		}
		got[at] = prices[0].Node.Text()
	}
	if got[jan1] != "15" || got[jan31] != "18" {
		t.Fatalf("Q3 history = %v, want 15@jan1 and 18@jan31", got)
	}
}

// TestQueryNotesDegradedRejectLikeQueryContext: with the breaker open, a
// query that needs an uncached version fails fast, and Query accounts the
// rejection in the health snapshot exactly as QueryContext does.
func TestQueryNotesDegradedRejectLikeQueryContext(t *testing.T) {
	inj := pagestore.NewInjector(pagestore.NewMemory(), 1)
	db := Open(Config{
		Clock: func() model.Time { return feb10 },
		Store: store.Config{
			Pages:       pagestore.Config{Backend: inj},
			ReadRetries: -1,
		},
		Cache: vcache.Config{MaxBytes: 8 << 20},
		Resilience: resilience.Config{
			Enabled: true,
			Breaker: resilience.BreakerConfig{
				FailureThreshold: 3,
				OpenFor:          time.Minute,
				ProbeSuccesses:   1,
				Clock:            func() time.Time { return time.Unix(0, 0) },
			},
			Health: resilience.HealthConfig{DegradeAfter: 3, FailAfter: 10, RecoverAfter: 2},
		},
	})
	id, err := db.Put(guideURL, guide([2]string{"Napoli", "15"}), jan1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Update(id, guide([2]string{"Napoli", "16"}), jan15); err != nil {
		t.Fatal(err)
	}
	// Version 1 is not cached: every query over it reads the backend.
	q := `SELECT R FROM doc("` + guideURL + `")[05/01/2001]/restaurant R`
	inj.SetOutage(true)
	ctx := context.Background()
	for i := 0; ; i++ {
		_, err := db.QueryContext(ctx, q)
		if errors.Is(err, resilience.ErrCircuitOpen) {
			break
		}
		if err == nil || i == 10 {
			t.Fatalf("breaker never opened: %v", err)
		}
	}
	rejects := func() int64 {
		snap, _ := db.Health()
		return snap.DegradedRejects
	}
	before := rejects()
	if _, err := db.QueryContext(ctx, q); !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("QueryContext with the breaker open = %v, want ErrCircuitOpen", err)
	}
	perCall := rejects() - before
	if perCall < 1 {
		t.Fatalf("QueryContext raised DegradedRejects by %d, want at least 1", perCall)
	}
	before = rejects()
	if _, err := db.Query(q); !errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("Query with the breaker open = %v, want ErrCircuitOpen", err)
	}
	if got := rejects() - before; got != perCall {
		t.Fatalf("Query raised DegradedRejects by %d, QueryContext by %d", got, perCall)
	}
}
