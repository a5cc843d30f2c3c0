package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"txmldb/internal/server"
)

// reqHeader carries the traced run's request id from client to server.
const reqHeader = "X-Perfbench-Request"

// served is a query server over one engine on a loopback port.
type served struct {
	base string
	stop func() error
}

// serverConfig is txserved's default flags with -quiet: the access log
// would otherwise write a line per request to stderr.
func serverConfig() server.Config {
	return server.Config{
		MaxInFlight:  8,
		MaxQueue:     32,
		QueueWait:    time.Second,
		QueryTimeout: 30 * time.Second,
		SlowQuery:    500 * time.Millisecond,
		ErrorLog:     log.New(os.Stderr, "txserved: ", log.LstdFlags),
	}
}

// serve starts a server over eng. Untraced it runs exactly as txserved
// does (server.Run); traced, the handler is wrapped to tag each request's
// context with the client's request id, so engine spans join the
// client's round-trip span.
func serve(eng server.Engine, tr *tracer) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(eng, serverConfig())
	base := "http://" + l.Addr().String()
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- srv.Run(ctx, l, 10*time.Second) }()
		return &served{base: base, stop: func() error { cancel(); return <-done }}, nil
	}
	h := srv.Handler()
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		h.ServeHTTP(w, r.WithContext(withReq(r.Context(), id)))
	})}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(l) }()
	return &served{base: base, stop: func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}}, nil
}

// client issues queries over loopback HTTP, as txserved's callers do: one
// request at a time per goroutine, each waiting for the whole reply.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	ids  atomic.Uint64 // traced request ids
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}},
		base: base, tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	lat    time.Duration // send to last body byte
}

func (c *client) query(ctx context.Context, q string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		return reply{}, err
	}
	end := func() {}
	if c.tr != nil {
		id := c.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		_, end = c.tr.begin(withReq(ctx, id), spanRequest)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	end()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, lat: lat}, nil
}

// check validates one reply: 200, valid JSON, row_count equal to the rows.
func check(r reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	var env struct {
		Rows     []json.RawMessage `json:"rows"`
		RowCount *int              `json:"row_count"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		return fmt.Errorf("invalid JSON: %v", err)
	}
	if env.RowCount == nil || *env.RowCount != len(env.Rows) {
		return fmt.Errorf("row_count does not match %d rows", len(env.Rows))
	}
	return nil
}

// elapsedField is the envelope's server-measured time, the only part of
// a response that differs between identical executions.
var elapsedField = regexp.MustCompile(`,"elapsed_ms":[0-9.]+`)

func stable(body []byte) string { return elapsedField.ReplaceAllString(string(body), "") }

// load is what a closed-loop read phase observed.
type load struct {
	queries, failed int
	lat             []float64       // ms
	done            []time.Duration // completion offsets from the phase start
	respBytes       int64
	firstErr        error
	// captured holds the first stable body seen for each sample query.
	captured map[string]string
}

// readPhase runs one closed-loop client per generator from start until the
// deadline, until stop is closed (nil: never), or until they have issued
// limit queries between them (limit 0: no limit).
func readPhase(c *client, gens []*queryGen, start, deadline time.Time, limit int, sample map[string]bool, stop <-chan struct{}) *load {
	ld := &load{captured: map[string]string{}}
	var mu sync.Mutex
	var issued atomic.Int64
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *queryGen) {
			defer wg.Done()
			for time.Now().Before(deadline) && !stopped(stop) && (limit == 0 || issued.Add(1) <= int64(limit)) {
				q := g.next()
				r, err := c.query(context.Background(), q)
				if err == nil {
					err = check(r)
				}
				mu.Lock()
				ld.queries++
				if err != nil {
					ld.failed++
					if ld.firstErr == nil {
						ld.firstErr = fmt.Errorf("query %q: %w", q, err)
					}
				} else {
					ld.lat = append(ld.lat, ms(r.lat))
					ld.done = append(ld.done, time.Since(start))
					ld.respBytes += int64(len(r.body))
					if _, seen := ld.captured[q]; sample[q] && !seen {
						ld.captured[q] = stable(r.body)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return ld
}

// stopped reports whether ch is closed; a nil channel never is.
func stopped(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
