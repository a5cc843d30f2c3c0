package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/plan"
	"txmldb/internal/xmltree"
)

// reference is the untimed engine serve answers are checked against: the
// same corpus, vcache off, one worker, in memory.
func reference(s spec, c *corpus) (*core.DB, error) {
	db := core.Open(core.Config{Workers: 1})
	if _, err := loadCorpus(db, s, c); err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	return db, nil
}

// sampleQueries draws n distinct queries of the workload's mix from the
// seed (at most 20n draws, so tiny mixes terminate).
func sampleQueries(s spec, c *corpus, seed int64, n int) []string {
	g := newQueryGen(s, c, seed, 1000)
	seen := map[string]bool{}
	var out []string
	for i := 0; len(out) < n && i < 20*n; i++ {
		if q := g.next(); !seen[q] {
			seen[q] = true
			out = append(out, q)
		}
	}
	return out
}

// expected renders the reference engine's answer to q the way the server
// encodes rows: elements as XML strings, timestamps in the language's
// format, scalars as they are.
func expected(ref *core.DB, q string) ([]string, []any, error) {
	res, err := ref.QueryContext(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]any, len(res.Rows))
	for i, row := range res.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case []plan.Elem:
				xs := make([]string, len(x))
				for k, el := range x {
					xs[k] = el.Node.String()
				}
				out[j] = xs
			case model.Time:
				out[j] = x.String()
			default:
				out[j] = v
			}
		}
		rows[i] = out
	}
	// Round-trip through JSON so both sides compare as decoded JSON.
	b, err := json.Marshal(rows)
	if err != nil {
		return nil, nil, err
	}
	var decoded []any
	if err := json.Unmarshal(b, &decoded); err != nil {
		return nil, nil, err
	}
	return res.Columns, decoded, nil
}

// compareAnswer checks one served body against the reference answer.
func compareAnswer(body string, cols []string, rows []any) error {
	var got struct {
		Columns []string `json:"columns"`
		Rows    []any    `json:"rows"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		return err
	}
	if !slices.Equal(got.Columns, cols) {
		return fmt.Errorf("columns %v, reference %v", got.Columns, cols)
	}
	if len(got.Rows) != len(rows) {
		return fmt.Errorf("%d rows, reference %d", len(got.Rows), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(got.Rows[i], rows[i]) {
			return fmt.Errorf("row %d differs from the reference", i)
		}
	}
	return nil
}

// durableCheck verifies a reopened store: every document holds exactly the
// acknowledged versions, its current tree equals the last acknowledged
// version, and Fsck finds nothing.
func durableCheck(db *core.DB, c *corpus, ids []model.DocID, acked []int) []error {
	var errs []error
	for i, id := range ids {
		vs, err := db.Versions(id)
		if err != nil {
			errs = append(errs, fmt.Errorf("doc %d: %w", i, err))
			continue
		}
		if len(vs) != acked[i]+1 {
			errs = append(errs, fmt.Errorf("doc %d: %d versions after reopen, %d acknowledged", i, len(vs), acked[i]+1))
		}
		cur, _, err := db.Current(id)
		if err != nil {
			errs = append(errs, fmt.Errorf("doc %d: current: %w", i, err))
			continue
		}
		want, err := xmltree.ParseString(c.hists[i][acked[i]].xml)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !xmltree.Equal(cur, want) {
			errs = append(errs, fmt.Errorf("doc %d: current tree differs from the last acknowledged version", i))
		}
	}
	if rep := db.Fsck(); !rep.Clean() {
		errs = append(errs, fmt.Errorf("%s", rep.String()))
	}
	return errs
}
