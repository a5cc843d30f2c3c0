package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pagestore"
	"txmldb/internal/parallel"
	"txmldb/internal/resilience"
	"txmldb/internal/vcache"
)

// options are the command's arguments.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// tiny shrinks every workload for the self-tests.
	tiny bool
	// corrupt perturbs one expected answer, to prove the checks bite.
	corrupt bool
}

// engineConfig is cmd/txserved's openDB with its default flags: vcache
// 64 MiB with MaxReplay 128, Workers = GOMAXPROCS, resilience on (breaker
// threshold 5, open 5 s), one shard, commit window 0, no checkpoints,
// SnapshotEvery 0. Every workload serves from -datadir (OpenDurable);
// serve_cold also sets -cache-bytes.
func engineConfig(cacheBytes int64) core.Config {
	return core.Config{
		Cache: vcache.Config{MaxBytes: cacheBytes, MaxReplay: 128},
		Resilience: resilience.Config{Enabled: true, Breaker: resilience.BreakerConfig{
			FailureThreshold: 5, OpenFor: 5 * time.Second,
		}},
	}
}

// state is one built workload: a durable engine loaded with the corpus
// and served over loopback.
type state struct {
	dir       string
	db        *core.DB
	srv       *served
	ids       []model.DocID
	acked     []int // newest acknowledged version per document
	userBytes int64 // XML bytes handed to Put/Update
	// load is the corpus load's Updates; loadStart/loadEnd bracket them.
	load               commits
	loadStart, loadEnd counters
}

// setup builds the workload state in dir: open, load, serve.
func setup(s spec, c *corpus, cfg core.Config, dir string) (*state, error) {
	db, err := core.OpenDurable(cfg, dir)
	if err != nil {
		return nil, err
	}
	st := &state{dir: dir, db: db, acked: make([]int, s.docs)}
	if st.ids, st.userBytes, err = putAll(db, c); err != nil {
		db.Close()
		return nil, err
	}
	st.loadStart = read(db)
	st.load = updateRounds(db, c, st.ids, s.versions)
	st.loadEnd = read(db)
	if st.load.firstErr != nil {
		db.Close()
		return nil, st.load.firstErr
	}
	st.userBytes += st.load.userBytes
	for i := range st.acked {
		st.acked[i] = s.versions - 1
	}
	if st.srv, err = serve(db, nil); err != nil {
		db.Close()
		return nil, err
	}
	return st, nil
}

// close stops the server and closes the store.
func (st *state) close() error {
	err := st.srv.stop()
	return errors.Join(err, st.db.Close())
}

// counters is a snapshot of every public counter the metrics difference.
type counters struct {
	at             time.Time
	io             pagestore.IOStats
	wal            pagestore.WALStats
	cache          vcache.Stats
	pool           parallel.Stats
	postings       int
	mallocs, bytes uint64
	gcCPU, cpu     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func read(db *core.DB) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	k := counters{
		io: db.IOStats(), pool: db.PoolStats(), postings: db.FTI().Stats().Postings,
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: cpuSamples[0].Value.Float64(), cpu: cpuSamples[1].Value.Float64(),
	}
	k.wal, _ = db.WALStats()
	k.cache, _ = db.CacheStats()
	k.at = time.Now()
	return k
}

// phase is one timed window of closed-loop load.
type phase struct {
	reads         *load
	writes        commits
	before, after counters
	wall          time.Duration
	heap          uint64 // HeapAlloc after a forced GC at the end
	// acc and spans are the traced engine's counters and spans at the
	// end of a traced phase (nil when untraced).
	acc   *resultAcc
	spans []span
}

// runPhase drives the workload's clients against srv for d. With a writer
// the reader stops when the writer does (its budget spent or the deadline
// passed), so every read beside it has the writer running.
func runPhase(s spec, c *corpus, st *state, srv *served, tr *tracer, seed int64, d time.Duration, budget int, sample map[string]bool) *phase {
	cl := newClient(srv.base, s.readers, tr)
	defer cl.close()
	gens := make([]*queryGen, s.readers)
	for i := range gens {
		gens[i] = newQueryGen(s, c, seed, i)
	}
	runtime.GC()
	p := &phase{before: read(st.db)}
	start := p.before.at
	deadline := start.Add(d)
	done := make(chan commits, 1)
	var stop chan struct{}
	if s.writer {
		stop = make(chan struct{})
		go func() {
			cm := writePhase(st.db, c, st.ids, st.acked, budget, start, deadline)
			close(stop)
			done <- cm
		}()
	}
	p.reads = readPhase(cl, gens, start, deadline, 0, sample, stop)
	if s.writer {
		p.writes = <-done
		st.userBytes += p.writes.userBytes
	}
	p.after = read(st.db)
	p.wall = p.after.at.Sub(p.before.at)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.heap = m.HeapAlloc
	return p
}

// outcome is everything one run measured and checked.
type outcome struct {
	spec      spec
	attempted int
	failures  []error
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	traced    map[string]float64 // end-to-end numbers of the traced phase
	notes     []string
	cacheB    int64
	ws        int64
	wsVers    int
	tailPct   map[string][2]float64 // metric -> (percentile, samples)
}

// fail counts n failures and keeps err (the first of them) for the report.
func (o *outcome) fail(n int, err error) {
	if n == 0 {
		return
	}
	o.failed += n
	if len(o.failures) < 10 {
		o.failures = append(o.failures, err)
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// execute runs one workload: set up, warm up, measure, check, reopen.
func execute(opt options) (*outcome, error) {
	s, ok := specs(opt.tiny)[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	c := generate(s, opt.seed)
	out := &outcome{spec: s, e2e: map[string]float64{}, layer: map[string]float64{}, tailPct: map[string][2]float64{}}
	out.ws, out.wsVers = workingSet(s, c)
	out.cacheB = s.cacheBytes
	if out.cacheB == 0 {
		out.cacheB = out.ws / 4
	}
	cfg := engineConfig(out.cacheB)
	work, err := os.MkdirTemp(opt.workdir, opt.workload+"-")
	if err != nil {
		return nil, err
	}
	defer removeSynced(work)

	// Serve workloads check a seeded sample against an untimed reference.
	var sampleList []string
	sample := map[string]bool{}
	want := map[string]answer{}
	if !s.writer {
		ref, err := reference(s, &c)
		if err != nil {
			return nil, err
		}
		sampleList = sampleQueries(s, &c, opt.seed, s.sample)
		for _, q := range sampleList {
			cols, rows, err := expected(ref, q)
			if err != nil {
				return nil, fmt.Errorf("reference %q: %w", q, err)
			}
			sample[q] = true
			want[q] = answer{cols, rows}
		}
		if opt.corrupt && len(sampleList) > 0 {
			a := want[sampleList[0]]
			a.rows = append(a.rows, "corrupted")
			want[sampleList[0]] = a
		}
	}

	// Set up several times after one untimed warm-up setup (which pays the
	// process's one-time costs); setup_s is the median, the last state is
	// kept. Earlier states stay on disk until the run ends: deleting them
	// would hand the file system journal work that the next setup's fsyncs
	// wait on. Each setup starts after a forced GC, so none inherits
	// another's garbage.
	var setups []float64
	var loads []commitSummary
	var st *state
	for i := range s.setups + 1 {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		st, err = setup(s, &c, cfg, filepath.Join(work, fmt.Sprintf("state-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i == 0 {
			continue // warm-up
		}
		setups = append(setups, time.Since(t0).Seconds())
		loads = append(loads, summarize(st.load, ratio(float64(st.load.n), st.load.wall.Seconds())))
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	out.e2e["setup_s"] = median(setups)
	out.note("setups: %.3f s", setups)

	// Warm up untimed: caches fill, connections open.
	if s.warmup > 0 {
		cl := newClient(st.srv.base, s.readers, nil)
		gens := make([]*queryGen, s.readers)
		for i := range gens {
			gens[i] = newQueryGen(s, &c, opt.seed, 100+i)
		}
		now := time.Now()
		w := readPhase(cl, gens, now, now.Add(time.Minute), s.warmup, nil, nil)
		cl.close()
		if w.failed > 0 {
			return nil, fmt.Errorf("warm-up: %w", w.firstErr)
		}
	}

	d, budget := time.Duration(opt.seconds*float64(time.Second)), s.commits
	if opt.trace {
		// Untraced then traced half, for the overhead comparison.
		d, budget = d/2, budget/2
	}
	plain := runPhase(s, &c, st, st.srv, nil, opt.seed, d, budget, sample)
	var traced *phase
	var tr *tracer
	if opt.trace {
		tr = newTracer()
		eng := &tracedEngine{DB: st.db, tr: tr}
		tsrv, err := serve(eng, tr)
		if err != nil {
			return nil, err
		}
		traced = runPhase(s, &c, st, tsrv, tr, opt.seed, d, budget, sample)
		acc := eng.results()
		traced.acc, traced.spans = &acc, tr.snapshot()
		// Every sample query is compared traced against untraced: the
		// ones the traced phase did not draw are asked now, untimed.
		fillSample(out, tsrv.base, sampleList, traced.reads)
		if err := tsrv.stop(); err != nil {
			return nil, fmt.Errorf("traced server: %w", err)
		}
	}

	// Correctness of the timed phases.
	for _, p := range []*phase{plain, traced} {
		if p == nil {
			continue
		}
		out.attempted += p.reads.queries + p.writes.n + p.writes.failed
		out.fail(p.reads.failed, p.reads.firstErr)
		out.fail(p.writes.failed, p.writes.firstErr)
	}
	if !s.writer {
		fillSample(out, st.srv.base, sampleList, plain.reads)
		checkSample(out, sampleList, want, plain, traced)
	}

	// Commit metrics: the timed writer on commit_mixed, the corpus load's
	// Updates (one writer, no reads beside it) on the serve workloads.
	cm, cmStart, cmEnd := st.load, st.loadStart, st.loadEnd
	if s.writer {
		cm, cmStart, cmEnd = plain.writes, plain.before, plain.after
		if traced != nil {
			cm, cmStart, cmEnd = traced.writes, traced.before, traced.after
		}
	}
	load := medianSummary(loads)
	endToEnd(out, plain, load)
	if traced != nil {
		out.traced = map[string]float64{}
		tmp := &outcome{spec: s, e2e: out.traced, tailPct: map[string][2]float64{}}
		endToEnd(tmp, traced, load)
		if !s.writer {
			// The serve workloads' commit metrics come from the setups,
			// which the traced phase does not repeat.
			for _, k := range []string{"commit_per_s", "commit_p50_ms", "commit_p99_ms"} {
				delete(out.traced, k)
			}
		}
		layers(out, traced, cm, cmStart, cmEnd)
		if err := writeSpans(traced.spans, filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, opt.seed))); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		layers(out, plain, cm, cmStart, cmEnd)
	}

	// Store amplification, then close and reopen the data directory.
	out.e2e["store_bytes_per_user_byte"] = ratio(float64(st.db.Store().Pages().BytesStored()), float64(st.userBytes))
	wal, _ := st.db.WALStats()
	out.e2e["wal_bytes_per_user_byte"] = ratio(float64(wal.BytesAppended), float64(st.userBytes))
	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	acked := st.acked
	if opt.corrupt && s.writer {
		acked = append([]int(nil), acked...)
		acked[0]--
	}
	// Reopen several times (each a full WAL replay and reindex) and report
	// medians; the first reopen's state is checked.
	var reopens, replays, indexes []float64
	for i := range s.reopens {
		runtime.GC()
		t0 := time.Now()
		db, err := core.OpenDurable(cfg, st.dir)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		reopens = append(reopens, time.Since(t0).Seconds())
		rep := db.OpenReport()
		replays = append(replays, rep.ReplayDuration.Seconds())
		indexes = append(indexes, rep.IndexDuration.Seconds())
		if i == 0 {
			out.note("reopen: %d commits replayed, %d versions reindexed", rep.ReplayedCommits, rep.IndexedVersions)
			out.attempted += len(st.ids) + 1
			for _, err := range durableCheck(db, &c, st.ids, acked) {
				out.fail(1, fmt.Errorf("after reopen: %w", err))
			}
		}
		if err := db.Close(); err != nil {
			return nil, fmt.Errorf("close after reopen: %w", err)
		}
	}
	out.e2e["reopen_s"] = median(reopens)
	out.note("reopens: %.3f s", reopens)
	out.layer["core.reopen_replay_s"] = median(replays)
	out.layer["core.reopen_index_s"] = median(indexes)
	if out.attempted > 0 {
		out.e2e["failed_frac"] = float64(out.failed) / float64(out.attempted)
	}
	return out, nil
}

// commitSummary is the end-to-end view of one sequence of commits.
type commitSummary struct {
	rate, p50, tail, pct float64
	n                    int
}

func summarize(cm commits, rate float64) commitSummary {
	t, pct := tail(cm.lat)
	return commitSummary{rate: rate, p50: median(cm.lat), tail: t, pct: pct, n: len(cm.lat)}
}

// medianSummary is the field-wise median of per-setup summaries, so a setup
// caught in an I/O stall does not set the run's figures.
func medianSummary(ss []commitSummary) commitSummary {
	pick := func(f func(commitSummary) float64) float64 {
		vs := make([]float64, len(ss))
		for i, s := range ss {
			vs[i] = f(s)
		}
		return median(vs)
	}
	return commitSummary{
		rate: pick(func(s commitSummary) float64 { return s.rate }),
		p50:  pick(func(s commitSummary) float64 { return s.p50 }),
		tail: pick(func(s commitSummary) float64 { return s.tail }),
		pct:  pick(func(s commitSummary) float64 { return s.pct }),
		n:    int(pick(func(s commitSummary) float64 { return float64(s.n) })),
	}
}

// removeSynced deletes dir and syncs its parent, so the file system commits
// the deletion now rather than in the middle of the next run's setups.
func removeSynced(dir string) {
	os.RemoveAll(dir)
	if d, err := os.Open(filepath.Dir(dir)); err == nil {
		d.Sync() // best effort: only timing, not correctness, depends on it
		d.Close()
	}
}

// answer is a reference result.
type answer struct {
	cols []string
	rows []any
}

// fillSample asks the server at base, untimed, for each sample query the
// phase did not draw, so every sample query has a body to check. A failed
// request counts as a failure and leaves the query without a body.
func fillSample(out *outcome, base string, list []string, ld *load) {
	cl := newClient(base, 1, nil)
	defer cl.close()
	for _, q := range list {
		if _, ok := ld.captured[q]; ok {
			continue
		}
		r, err := cl.query(context.Background(), q)
		if err == nil {
			err = check(r)
		}
		if err != nil {
			out.attempted++
			out.fail(1, fmt.Errorf("sample %q: %w", q, err))
			continue
		}
		ld.captured[q] = stable(r.body)
	}
}

// checkSample compares the sample's served answers with the reference and,
// on a traced run, the traced bodies with the untraced ones. fillSample
// has given every sample query a body in each phase, or counted a failure.
func checkSample(out *outcome, list []string, want map[string]answer, plain, traced *phase) {
	identical := 0
	for _, q := range list {
		body, ok := plain.reads.captured[q]
		if !ok {
			continue
		}
		out.attempted++
		if err := compareAnswer(body, want[q].cols, want[q].rows); err != nil {
			out.fail(1, fmt.Errorf("sample %q: %w", q, err))
		}
		tb, ok := traced.capturedOf(q)
		if !ok {
			continue
		}
		out.attempted++
		if tb != body {
			out.fail(1, fmt.Errorf("sample %q: traced response differs from untraced", q))
		} else {
			identical++
		}
	}
	if traced != nil {
		out.note("traced responses byte-identical to untraced (elapsed_ms aside): %d of %d sample queries", identical, len(list))
	}
}

// capturedOf is the phase's body for sample query q; false on a nil phase.
func (p *phase) capturedOf(q string) (string, bool) {
	if p == nil {
		return "", false
	}
	b, ok := p.reads.captured[q]
	return b, ok
}

// endToEnd fills the user-visible metrics of one phase. Rates are medians
// over one-second windows of the phase. On the serve workloads the commit
// metrics come from the corpus loads of the setups (load).
func endToEnd(out *outcome, p *phase, load commitSummary) {
	windows := max(1, int(p.wall.Seconds()+0.5))
	ok := len(p.reads.lat)
	out.e2e["query_qps"] = windowRate(p.reads.done, p.wall, windows)
	out.note("query_qps per window: %.0f", windowRates(p.reads.done, p.wall, windows))
	out.e2e["query_p50_ms"] = median(p.reads.lat)
	v, pct := tail(p.reads.lat)
	out.e2e["query_p99_ms"] = v
	out.tailPct["query_p99_ms"] = [2]float64{pct, float64(ok)}
	cm := load
	if out.spec.writer {
		// Over the writer's own time: it stops early once its budget is
		// spent.
		w := p.writes.wall
		cm = summarize(p.writes, windowRate(p.writes.done, w, max(1, int(w.Seconds()+0.5))))
		out.note("writer: %d Updates in %.2f s of the %.2f s phase", p.writes.n, w.Seconds(), p.wall.Seconds())
	}
	out.e2e["commit_per_s"] = cm.rate
	out.e2e["commit_p50_ms"] = cm.p50
	out.e2e["commit_p99_ms"] = cm.tail
	out.tailPct["commit_p99_ms"] = [2]float64{cm.pct, float64(cm.n)}
	ops := float64(ok + p.writes.n)
	out.e2e["allocs_per_op"] = ratio(float64(p.after.mallocs-p.before.mallocs), ops)
	out.e2e["alloc_bytes_per_op"] = ratio(float64(p.after.bytes-p.before.bytes), ops)
	out.e2e["live_heap_mb"] = float64(p.heap) / (1 << 20)
}

// layers fills the per-layer metrics from a phase's counter deltas (and
// spans, on a traced phase) and the commits cm bracketed by c0/c1.
func layers(out *outcome, p *phase, cm commits, c0, c1 counters) {
	L := out.layer
	q := float64(p.reads.queries - p.reads.failed)
	io := p.after.io.Sub(p.before.io)
	cache := p.after.cache
	cache0 := p.before.cache
	L["server.resp_bytes_per_query"] = ratio(float64(p.reads.respBytes), q)
	L["vcache.hit_ratio"] = ratio(float64(cache.Hits-cache0.Hits), float64(cache.Lookups-cache0.Lookups))
	L["vcache.ancestor_hit_ratio"] = ratio(float64(cache.AncestorHits-cache0.AncestorHits), float64(cache.Misses-cache0.Misses))
	L["vcache.evictions_per_query"] = ratio(float64(cache.Evictions-cache0.Evictions), q)
	L["pagestore.extent_reads_per_query"] = ratio(float64(io.ExtentRead), q)
	L["pagestore.seeks_per_query"] = ratio(float64(io.Seeks), q)
	L["pagestore.pool_hit_ratio"] = ratio(float64(io.CacheHits), float64(io.CacheHits+io.CacheMisses))
	L["parallel.tasks_per_query"] = ratio(float64(p.after.pool.Submitted-p.before.pool.Submitted), q)
	L["parallel.queue_wait_ms_per_query"] = ratio(ms(p.after.pool.QueueWait-p.before.pool.QueueWait), q)
	L["runtime.gc_cpu_frac"] = ratio(p.after.gcCPU-p.before.gcCPU, p.after.cpu-p.before.cpu)

	n := float64(cm.n)
	L["vcache.invalidations_per_commit"] = ratio(float64(c1.cache.Invalidations-c0.cache.Invalidations), n)
	L["pagestore.wal_syncs_per_commit"] = ratio(float64(c1.wal.Syncs-c0.wal.Syncs), n)
	L["pagestore.wal_bytes_per_commit"] = ratio(float64(c1.wal.BytesAppended-c0.wal.BytesAppended), n)
	L["pagestore.page_writes_per_commit"] = ratio(float64(c1.io.PageWrites-c0.io.PageWrites), n)
	L["diff.ops_per_commit"] = ratio(float64(cm.ops), n)
	L["fti.postings_per_commit"] = ratio(float64(c1.postings-c0.postings), n)

	if p.acc == nil {
		return
	}
	acc := *p.acc
	L["plan.rows_examined_per_row"] = ratio(float64(acc.rowsExamined), float64(acc.rows))
	L["pattern.matches_per_query"] = ratio(float64(acc.matches), float64(acc.queries))
	L["store.reconstructs_per_query"] = ratio(float64(acc.reconstructions), float64(acc.queries))
	sl := reduceSpans(p.spans)
	L["server.self_ms"] = median(sl.serverSelf)
	L["query.parse_us"] = median(sl.parse)
	L["plan.self_ms"] = median(sl.planSelf)
	L["pattern.scan_ms"] = mean(sl.scan)
	L["store.reconstruct_ms"] = mean(sl.recon)
	L["store.versions_us"] = median(sl.versions)
	out.note("store.reconstruct share of engine time: %.3f (%.1f of %.1f ms over %d traced requests)",
		ratio(sl.reconTotal, sl.engineTotal), sl.reconTotal, sl.engineTotal, len(sl.serverSelf))
}
