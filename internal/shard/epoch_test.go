package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/vcache"
	"txmldb/internal/xmltree"
)

// TestEpochPinnedQueryQuiescedOracle is the sharded form of core's
// isolation oracle: [EVERY] queries pinned through the router race three
// writers on four shards, and each raced result must be byte-identical to
// a rerun at the same epoch vector after the writers stopped. The version
// cache is on, so the pinned cache-fetch path runs on every shard.
func TestEpochPinnedQueryQuiescedOracle(t *testing.T) {
	r := Open(Config{Shards: 4, Engine: func(int) core.Config {
		return core.Config{
			Clock: func() model.Time { return 1_000_000 },
			Cache: vcache.Config{MaxBytes: 1 << 20},
		}
	}})
	defer r.Close()
	const writers = 3
	const updates = 30
	mk := func(price int) *xmltree.Node {
		return xmltree.Elem("guide", xmltree.Elem("restaurant",
			xmltree.ElemText("name", "Napoli"),
			xmltree.ElemText("price", fmt.Sprint(price))))
	}
	ids := make([]model.DocID, writers)
	urls := make([]string, writers)
	for w := range ids {
		urls[w] = testURL(w)
		id, err := r.Put(urls[w], mk(1), 1000)
		if err != nil {
			t.Fatal(err)
		}
		ids[w] = id
	}
	queries := []string{
		fmt.Sprintf(`SELECT TIME(R), R/price FROM doc(%q)[EVERY]/restaurant R`, urls[0]),
		fmt.Sprintf(`SELECT TIME(R), R/price FROM doc(%q)[EVERY]/restaurant R`, urls[1]),
		// One row per pair of versions across two shards' documents: both
		// sides must come from the same epoch vector.
		fmt.Sprintf(`SELECT TIME(R), TIME(S) FROM doc(%q)[EVERY]/restaurant R, doc(%q)[EVERY]/restaurant S`, urls[1], urls[2]),
	}

	type pinnedRun struct {
		query string
		pin   context.Context
		out   string
	}
	var (
		runsMu sync.Mutex
		runs   []pinnedRun
	)
	var writersWG, readersWG, readersUp sync.WaitGroup
	stop := make(chan struct{})
	readersUp.Add(len(queries))
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			readersUp.Wait() // every reader is looping before the first write
			for i := 2; i <= updates; i++ {
				if _, _, err := r.Update(ids[w], mk(i), model.Time(1000+int64(i))); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := range queries {
		readersWG.Add(1)
		go func(q string) {
			defer readersWG.Done()
			for n := 0; ; n++ {
				if n == 0 {
					readersUp.Done()
				}
				select {
				case <-stop:
					return
				default:
				}
				pin := r.pinned(context.Background())
				res, err := r.QueryContext(pin, q)
				if err != nil {
					t.Errorf("pinned query: %v", err)
					return
				}
				runsMu.Lock()
				runs = append(runs, pinnedRun{query: q, pin: pin, out: res.Doc().String()})
				runsMu.Unlock()
			}
		}(queries[i])
	}
	writersWG.Wait()
	close(stop)
	readersWG.Wait()

	if len(runs) == 0 {
		t.Fatal("no pinned queries executed while writers ran")
	}
	// Quiesced oracle: the same query at the same epoch vector must answer
	// byte-identically now that no writers race it.
	for _, run := range runs {
		res, err := r.QueryContext(run.pin, run.query)
		if err != nil {
			t.Fatalf("quiesced rerun at %v: %v", run.pin.Value(epochsKey{}), err)
		}
		if got := res.Doc().String(); got != run.out {
			t.Fatalf("epochs %v: racing result differs from quiesced oracle:\nraced:    %s\nquiesced: %s",
				run.pin.Value(epochsKey{}), run.out, got)
		}
	}
}
