package main

import (
	"fmt"
	"math/rand"
	"time"

	"txmldb/internal/model"
	"txmldb/internal/tdocgen"
	"txmldb/internal/xmltree"
)

// spec sizes one workload. Every field is fixed per workload and scale;
// the seed only changes which documents, words and versions are drawn.
type spec struct {
	name string
	// Corpus: docs documents, each loaded with versions versions of
	// elems initial restaurants and ops edits per version.
	docs, versions, elems, ops int
	// future is how many further generated versions per document the
	// commit_mixed writer may append during the timed phase; commits is
	// how many Updates it makes at most. The budget keeps the reopened
	// state the same size however fast commits run, so reopen_s does not
	// rise when commit_per_s does.
	future, commits int
	// cacheBytes is the vcache byte budget; 0 means a quarter of the
	// distinct-version working set (serve_cold's deployment setting).
	cacheBytes int64
	// readers is the number of closed-loop HTTP clients; writer adds one
	// closed-loop durable writer (commit_mixed).
	readers int
	writer  bool
	// setups is how many times the workload state is built, reopens how
	// many times it is reopened after the timed phase; setup_s and
	// reopen_s are their medians.
	setups, reopens int
	// warmup queries run before the timed phase (caches fill, lazy set-up
	// finishes); sample distinct queries are checked against the reference
	// engine.
	warmup, sample int
}

// specs returns the workload table at full or tiny (self-test) scale.
func specs(tiny bool) map[string]spec {
	m := map[string]spec{
		"serve_hot": {name: "serve_hot", docs: 64, versions: 12, elems: 10, ops: 2,
			cacheBytes: 64 << 20, readers: 2, setups: 7, reopens: 5, warmup: 400, sample: 48},
		"serve_cold": {name: "serve_cold", docs: 32, versions: 32, elems: 10, ops: 2,
			readers: 2, setups: 7, reopens: 3, warmup: 200, sample: 48},
		"commit_mixed": {name: "commit_mixed", docs: 512, versions: 2, elems: 10, ops: 2, future: 12, commits: 3000,
			cacheBytes: 64 << 20, readers: 1, writer: true, setups: 9, reopens: 3, warmup: 50},
	}
	if tiny {
		for k, s := range m {
			s.docs, s.versions, s.future, s.commits = 4, 4, 40, 100
			s.setups, s.reopens, s.warmup, s.sample = 2, 1, 10, 8
			m[k] = s
		}
	}
	return m
}

// start is the timestamp of every document's first version; versions are
// one day apart, so the query language's day literals address them.
var start = model.Date(2001, time.January, 1)

// version is one generated document state as the XML handed to Put/Update.
type version struct {
	xml string
	at  model.Time
}

// corpus is the generated input of one run: per document its URL and
// full history (loaded prefix plus the writer's future versions).
type corpus struct {
	urls  []string
	hists [][]version
	// names holds each document's initial restaurant names (queries filter
	// on them; most survive the edits).
	names [][]string
	// words are frequent content words, for current-version WHERE selects.
	words []string
}

// generate builds the workload's corpus from the seed.
func generate(s spec, seed int64) corpus {
	g := tdocgen.New(tdocgen.Config{
		Seed: seed, Docs: s.docs, Versions: s.versions + s.future,
		InitialElems: s.elems, OpsPerVersion: s.ops, Start: start,
	})
	c := corpus{urls: make([]string, s.docs), hists: make([][]version, s.docs), names: make([][]string, s.docs)}
	for i := range s.docs {
		c.urls[i] = g.URL(i)
		for _, v := range g.History(i) {
			c.hists[i] = append(c.hists[i], version{xml: v.Tree.String(), at: v.At})
		}
		root, _ := xmltree.ParseString(c.hists[i][0].xml)
		for _, n := range root.SelectPath("restaurant/name") {
			c.names[i] = append(c.names[i], n.Text())
		}
	}
	// tdocgen draws words Zipf-distributed from w0000 upwards: the first
	// few are the ones most restaurants carry.
	for i := range 12 {
		c.words = append(c.words, fmt.Sprintf("w%04d", i))
	}
	return c
}

// workingSet returns the bytes (xmltree.DeepSize of the parsed trees) of
// the distinct versions the workload's queries touch, and their count.
func workingSet(s spec, c corpus) (bytes int64, versions int) {
	for i := range s.docs {
		lo := 0
		if s.name == "serve_hot" {
			lo = s.versions - hotDepth
		}
		for v := lo; v < s.versions; v++ {
			root, _ := xmltree.ParseString(c.hists[i][v].xml)
			bytes += root.DeepSize()
			versions++
		}
	}
	return bytes, versions
}

// hotDepth is how many of each document's newest versions serve_hot asks
// for.
const hotDepth = 2

// queryGen draws one client's query stream.
type queryGen struct {
	s    spec
	c    *corpus
	r    *rand.Rand
	zipf *rand.Zipf
}

func newQueryGen(s spec, c *corpus, seed int64, client int) *queryGen {
	r := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	// Document popularity is an assumption: nothing in the repository
	// records which documents callers ask for. Zipf s=1.1 with v=4 gives
	// the ten most popular of 64 documents about half the traffic while no
	// single document takes more than about a tenth, so no one generated
	// document (whose size the seed sets) sets the run's figures.
	return &queryGen{s: s, c: c, r: r, zipf: rand.NewZipf(r, 1.1, 4, uint64(s.docs-1))}
}

func dateLit(t model.Time) string { return t.Std().Format("02/01/2006") }

// next returns the next query of the workload's mix.
func (g *queryGen) next() string {
	c, r := g.c, g.r
	switch g.s.name {
	case "serve_hot":
		// Zipf-chosen documents; snapshots and SUMs at one of the newest
		// versions, or a current-version WHERE select. The three shapes
		// get equal shares, as examples/restaurants issues each of its
		// query shapes once: no record of served traffic weighs them.
		i := int(g.zipf.Uint64())
		at := dateLit(c.hists[i][g.s.versions-1-r.Intn(hotDepth)].at)
		switch r.Intn(3) {
		case 0:
			return fmt.Sprintf(`SELECT R FROM doc(%q)[%s]/restaurant R`, c.urls[i], at)
		case 1:
			return fmt.Sprintf(`SELECT SUM(R) FROM doc(%q)[%s]/restaurant R`, c.urls[i], at)
		default:
			return fmt.Sprintf(`SELECT R/name FROM doc(%q)/restaurant R WHERE R/info/chef = %q`,
				c.urls[i], c.words[r.Intn(len(c.words))])
		}
	case "serve_cold":
		// Uniform (document, past version) snapshots; about one in ten is
		// a whole-history [EVERY] query.
		i := r.Intn(g.s.docs)
		if r.Intn(10) == 0 {
			return everyQuery(c, i, r)
		}
		return fmt.Sprintf(`SELECT R FROM doc(%q)[%s]/restaurant R`, c.urls[i], dateLit(c.hists[i][r.Intn(g.s.versions)].at))
	default: // commit_mixed reader
		// Three in ten are [EVERY] histories, an assumption: no record of
		// served traffic gives the share. An even split would put the
		// median on the boundary between the two shapes' latencies (a
		// history costs several snapshots), where it flips from run to
		// run; at three in ten it stays among the snapshots while the
		// histories still carry much of the engine time.
		i := r.Intn(g.s.docs)
		if r.Intn(10) < 3 {
			return everyQuery(c, i, r)
		}
		return fmt.Sprintf(`SELECT R FROM doc(%q)[NOW]/restaurant R`, c.urls[i])
	}
}

// everyQuery is the Q3 shape: one restaurant's price history.
func everyQuery(c *corpus, i int, r *rand.Rand) string {
	name := c.names[i][r.Intn(len(c.names[i]))]
	return fmt.Sprintf(`SELECT TIME(R), R/price FROM doc(%q)[EVERY]/restaurant R WHERE R/name = %q`, c.urls[i], name)
}
