package main

import (
	"context"
	"errors"
	"sync"

	"txmldb/internal/core"
	"txmldb/internal/model"
	"txmldb/internal/pattern"
	"txmldb/internal/plan"
	"txmldb/internal/query"
	"txmldb/internal/resilience"
	"txmldb/internal/server"
	"txmldb/internal/store"
)

// tracedEngine is the traced run's engine: core.DB with spans around every
// call the server makes into the engine and the planner makes back into
// it. It reproduces core.DB.QueryContext from public calls (epoch pin,
// query.Parse, plan.RunContext), so the planner sees this decorator, not
// core.DB.
//
// Embedding *core.DB forwards every method the decorator does not wrap,
// so none of plan's optional extensions can be dropped silently: a
// dropped ContextVersionLister or ContextScanner would send plan down its
// unpinned fallback and measure a different program. The assertions below
// fail the build if core.DB or this type stops implementing one.
type tracedEngine struct {
	*core.DB
	tr *tracer

	mu  sync.Mutex
	acc resultAcc
}

var (
	_ server.Engine             = (*tracedEngine)(nil)
	_ plan.Engine               = (*tracedEngine)(nil)
	_ plan.ContextScanner       = (*tracedEngine)(nil)
	_ plan.ContextReconstructor = (*tracedEngine)(nil)
	_ plan.ContextVersionLister = (*tracedEngine)(nil)
	_ plan.Prefetcher           = (*tracedEngine)(nil)
	_ plan.DegradedReporter     = (*tracedEngine)(nil)

	_ plan.ContextScanner       = (*core.DB)(nil)
	_ plan.ContextReconstructor = (*core.DB)(nil)
	_ plan.ContextVersionLister = (*core.DB)(nil)
	_ plan.Prefetcher           = (*core.DB)(nil)
	_ plan.DegradedReporter     = (*core.DB)(nil)
)

// resultAcc sums the planner's own per-query counters.
type resultAcc struct {
	queries, rows, rowsExamined, matches, reconstructions int64
}

// QueryContext mirrors core.DB.QueryContext step for step.
func (e *tracedEngine) QueryContext(ctx context.Context, src string) (*plan.Result, error) {
	ctx, end := e.tr.begin(ctx, spanEngine)
	defer end()
	ctx = store.WithEpoch(ctx, e.DB.Epoch())
	_, endParse := e.tr.begin(ctx, spanParse)
	q, err := query.Parse(src)
	endParse()
	if err != nil {
		return nil, err
	}
	rctx, endPlan := e.tr.begin(ctx, spanPlan)
	res, err := plan.RunContext(rctx, e, q)
	endPlan()
	if err != nil {
		if errors.Is(err, resilience.ErrCircuitOpen) {
			e.DB.Resilience().NoteDegradedReject()
		}
		return nil, err
	}
	if res.Degraded {
		e.DB.Resilience().NoteDegradedServe()
	}
	e.mu.Lock()
	e.acc.queries++
	e.acc.rows += int64(len(res.Rows))
	e.acc.rowsExamined += int64(res.Metrics.RowsExamined)
	e.acc.matches += int64(res.Metrics.PatternMatches)
	e.acc.reconstructions += int64(res.Metrics.Reconstructions)
	e.mu.Unlock()
	return res, nil
}

func (e *tracedEngine) results() resultAcc {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acc
}

func (e *tracedEngine) ScanTContext(ctx context.Context, p *pattern.PNode, t model.Time) ([]pattern.Match, error) {
	ctx, end := e.tr.begin(ctx, spanScan)
	defer end()
	return e.DB.ScanTContext(ctx, p, t)
}

func (e *tracedEngine) ScanAllContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	ctx, end := e.tr.begin(ctx, spanScan)
	defer end()
	return e.DB.ScanAllContext(ctx, p)
}

func (e *tracedEngine) ScanCurrentContext(ctx context.Context, p *pattern.PNode) ([]pattern.Match, error) {
	ctx, end := e.tr.begin(ctx, spanScan)
	defer end()
	return e.DB.ScanCurrentContext(ctx, p)
}

func (e *tracedEngine) ReconstructVersionContext(ctx context.Context, doc model.DocID, ver model.VersionNo) (store.VersionTree, error) {
	ctx, end := e.tr.begin(ctx, spanRecon)
	defer end()
	return e.DB.ReconstructVersionContext(ctx, doc, ver)
}

func (e *tracedEngine) VersionsContext(ctx context.Context, doc model.DocID) ([]store.VersionInfo, error) {
	ctx, end := e.tr.begin(ctx, spanVersions)
	defer end()
	return e.DB.VersionsContext(ctx, doc)
}

func (e *tracedEngine) PrefetchVersions(ctx context.Context, keys []plan.VersionKey, sink func(plan.VersionKey, store.VersionTree)) (bool, error) {
	ctx, end := e.tr.begin(ctx, spanPrefetch)
	defer end()
	return e.DB.PrefetchVersions(ctx, keys, sink)
}
