package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one HTTP request share
// Req; Parent is the span whose call made this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

type ctxKey int

const (
	reqKey ctxKey = iota
	spanKey
)

// withReq tags ctx with a request id; spans started under it carry it.
func withReq(ctx context.Context, req uint64) context.Context {
	return context.WithValue(ctx, reqKey, req)
}

// begin opens a span named name under the span carried by ctx and returns
// the context its callees run under and the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	sp := span{ID: t.ids.Add(1), Name: name, Start: int64(time.Since(t.base))}
	sp.Parent, _ = ctx.Value(spanKey).(uint64)
	sp.Req, _ = ctx.Value(reqKey).(uint64)
	return context.WithValue(ctx, spanKey, sp.ID), func() {
		sp.End = int64(time.Since(t.base))
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// writeSpans stores spans as JSON lines.
func writeSpans(spans []span, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is the part of parent's interval that none of its children
// covers: overlapping children (parallel calls) count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	covered, end := int64(0), parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.dur() - time.Duration(covered)
}

// Span names recorded by the benchmark.
const (
	spanRequest  = "http.request"          // client: send to last body byte
	spanEngine   = "core.QueryContext"     // server side, engine entry point
	spanParse    = "query.Parse"           // parse
	spanPlan     = "plan.RunContext"       // plan and execute
	spanScan     = "pattern.Scan"          // Scan{T,All,Current}Context
	spanRecon    = "store.Reconstruct"     // ReconstructVersionContext
	spanPrefetch = "store.Prefetch"        // PrefetchVersions
	spanVersions = "store.VersionsContext" // VersionsContext
)

// spanLayers reduces a trace to the span-based per-layer metrics.
type spanLayers struct {
	serverSelf, parse, planSelf, scan, recon, versions []float64
	engineTotal, reconTotal                            float64
}

func reduceSpans(spans []span) spanLayers {
	byReq := map[uint64][]span{}
	children := map[uint64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
		children[s.Parent] = append(children[s.Parent], s)
	}
	var out spanLayers
	for req, ss := range byReq {
		if req == 0 {
			continue
		}
		var root, engine *span
		var scan, recon time.Duration
		for i := range ss {
			s := &ss[i]
			switch s.Name {
			case spanRequest:
				root = s
			case spanEngine:
				engine = s
			case spanParse:
				out.parse = append(out.parse, float64(s.dur())/float64(time.Microsecond))
			case spanPlan:
				out.planSelf = append(out.planSelf, ms(selfTime(*s, children[s.ID])))
			case spanScan:
				scan += s.dur()
			case spanRecon, spanPrefetch:
				recon += selfTime(*s, children[s.ID])
			case spanVersions:
				out.versions = append(out.versions, float64(s.dur())/float64(time.Microsecond))
			}
		}
		if root == nil || engine == nil {
			continue
		}
		out.serverSelf = append(out.serverSelf, ms(root.dur()-engine.dur()))
		out.scan = append(out.scan, ms(scan))
		out.recon = append(out.recon, ms(recon))
		out.engineTotal += ms(engine.dur())
		out.reconTotal += ms(recon)
	}
	return out
}
