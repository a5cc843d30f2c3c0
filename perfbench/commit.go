package main

import (
	"fmt"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/xmltree"
)

// commits is what a sequence of durable Updates observed.
type commits struct {
	lat       []float64       // ms, Update call to return, per acknowledged Update
	done      []time.Duration // completion offsets from the writer's start
	n, failed int
	ops       int64         // edit operations in the returned scripts
	wall      time.Duration // wall time of the loops that issued them
	userBytes int64         // XML bytes handed to Update
	firstErr  error
}

// update parses version v of document i and stores it, timing only the
// Update call.
func (cm *commits) update(db *core.DB, c *corpus, ids []model.DocID, i, v int, start time.Time) bool {
	h := c.hists[i][v]
	tree, err := xmltree.ParseString(h.xml)
	if err != nil {
		cm.fail(fmt.Errorf("doc %d version %d: %w", i, v, err))
		return false
	}
	t0 := time.Now()
	_, script, err := db.Update(ids[i], tree, h.at)
	lat := time.Since(t0)
	if err != nil {
		cm.fail(fmt.Errorf("update doc %d version %d: %w", i, v, err))
		return false
	}
	cm.lat = append(cm.lat, ms(lat))
	cm.done = append(cm.done, time.Since(start))
	cm.n++
	cm.userBytes += int64(len(h.xml))
	st := script.Stats()
	cm.ops += int64(st.Inserts + st.Deletes + st.Updates + st.Moves + st.Renames)
	return true
}

func (cm *commits) fail(err error) {
	cm.failed++
	if cm.firstErr == nil {
		cm.firstErr = err
	}
}

// putAll stores every document's first version, returning the ids and the
// XML bytes handed over.
func putAll(db *core.DB, c *corpus) ([]model.DocID, int64, error) {
	ids := make([]model.DocID, len(c.urls))
	var bytes int64
	for i, u := range c.urls {
		h := c.hists[i][0]
		tree, err := xmltree.ParseString(h.xml)
		if err != nil {
			return nil, 0, err
		}
		if ids[i], err = db.Put(u, tree, h.at); err != nil {
			return nil, 0, fmt.Errorf("put doc %d: %w", i, err)
		}
		bytes += int64(len(h.xml))
	}
	return ids, bytes, nil
}

// updateRounds stores versions 1..versions-1 of every document, one round
// per version number (as a crawler revisits its sites).
func updateRounds(db *core.DB, c *corpus, ids []model.DocID, versions int) commits {
	var cm commits
	t0 := time.Now()
	for v := 1; v < versions; v++ {
		for i := range ids {
			cm.update(db, c, ids, i, v, t0)
		}
	}
	cm.wall = time.Since(t0)
	return cm
}

// loadCorpus loads the workload's initial histories.
func loadCorpus(db *core.DB, s spec, c *corpus) ([]model.DocID, error) {
	ids, _, err := putAll(db, c)
	if err != nil {
		return nil, err
	}
	if cm := updateRounds(db, c, ids, s.versions); cm.firstErr != nil {
		return nil, cm.firstErr
	}
	return ids, nil
}

// writePhase is commit_mixed's closed-loop writer: round-robin over the
// documents, each Update storing the document's next generated version,
// until the deadline or budget acknowledged Updates. acked[i] is the newest
// acknowledged version of document i.
func writePhase(db *core.DB, c *corpus, ids []model.DocID, acked []int, budget int, start, deadline time.Time) commits {
	var cm commits
	for i, idle := 0, 0; time.Now().Before(deadline) && cm.n < budget && idle < len(ids); i = (i + 1) % len(ids) {
		v := acked[i] + 1
		if v >= len(c.hists[i]) {
			idle++ // this document's generated history is used up
			continue
		}
		idle = 0
		if cm.update(db, c, ids, i, v, start) {
			acked[i] = v
		}
	}
	cm.wall = time.Since(start)
	return cm
}
