package main

// The HTTP side shared by the query, fanout and ingest workloads: servers
// and routers on real loopback listeners, a closed-loop client, and the
// read-latency summaries.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowcube/internal/cluster"
	"flowcube/internal/server"
)

var quiet = log.New(io.Discard, "", 0)

// endpoint is one in-process server or router on a loopback listener.
type endpoint struct {
	url  string
	srv  *server.Server // nil for a router
	stop func() error
}

// serveServer serves s on a fresh listener: through Server.Serve when
// untraced, through an identical http.Server around a traced handler
// otherwise.
func serveServer(s *server.Server, tr *tracer, name string) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: "http://" + ln.Addr().String(), srv: s}
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.Serve(ctx, ln) }()
		ep.stop = func() error { cancel(); return <-done }
		return ep, nil
	}
	hs := &http.Server{Handler: tr.handler(name, s.Handler()), ReadHeaderTimeout: 5 * time.Second}
	ep.stop = serveHTTP(hs, ln, s.Close)
	return ep, nil
}

// serveRouter serves rt like serveServer serves a server.
func serveRouter(rt *cluster.Router, tr *tracer) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{url: "http://" + ln.Addr().String()}
	if tr == nil {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- rt.Serve(ctx, ln) }()
		ep.stop = func() error { cancel(); return <-done }
		return ep, nil
	}
	hs := &http.Server{Handler: tr.handler("router", rt.Handler()), ReadHeaderTimeout: 5 * time.Second}
	ep.stop = serveHTTP(hs, ln, func() error { return nil })
	return ep, nil
}

// serveHTTP runs hs on ln and returns its stop function: shut down, wait
// for Serve to return, then release the program's own resources.
func serveHTTP(hs *http.Server, ln net.Listener, closeFn func() error) func() error {
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	return func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-done // http.ErrServerClosed once Shutdown began
		if cerr := closeFn(); err == nil {
			err = cerr
		}
		return err
	}
}

// stopAll stops endpoints in reverse start order.
func stopAll(eps []*endpoint) error {
	var first error
	for i := len(eps) - 1; i >= 0; i-- {
		if err := eps[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// client issues requests to one base URL, tagging them for the tracer.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
	rids atomic.Int64
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}, Timeout: 60 * time.Second},
		base: base,
		tr:   tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	body   []byte
	took   time.Duration
}

// do sends one request and reads the whole body; a transport error is
// reported as status 0.
func (c *client) do(method, path string, body []byte) reply {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}
	}
	id, start := c.tr.begin()
	rid := c.rids.Add(1)
	if c.tr != nil {
		req.Header.Set(ridHeader, strconv.FormatInt(rid, 10))
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	} else {
		start = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{took: time.Since(start)}
	}
	b, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // body drained; close cannot lose data
	took := time.Since(start)
	c.tr.end(id, 0, rid, "client", start, method+" "+req.URL.Path)
	if err != nil {
		return reply{took: took}
	}
	return reply{status: resp.StatusCode, body: b, took: took}
}

func (c *client) get(path string) reply { return c.do(http.MethodGet, path, nil) }

// readStats are the client-side results of a read loop.
type readStats struct {
	lat  []float64 // ms, every attempted read
	ok   int
	wall time.Duration
}

func (s *readStats) merge(o readStats) {
	s.lat = append(s.lat, o.lat...)
	s.ok += o.ok
	s.wall += o.wall
}

// warm issues reqs once, in order, from one connection: the warm-up pass
// every topology runs over the same request list before timing.
func warm(r *run, c *client, reqs []request) {
	for _, q := range reqs {
		r.op(c.get(q.path).status == http.StatusOK)
	}
}

// readLoop runs a closed loop of clients readers over reqs (cycling) until
// stop returns true, and returns the pooled latencies.
func readLoop(r *run, c *client, reqs []request, clients int, stop func() bool) readStats {
	var next atomic.Int64
	parts := make([]readStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for !stop() {
				q := reqs[int(next.Add(1)-1)%len(reqs)]
				rep := c.get(q.path)
				ok := rep.status == http.StatusOK
				r.op(ok)
				if !ok {
					fmt.Fprintf(os.Stderr, "perfbench: %s: read %s: status %d\n", r.workload, q.path, rep.status)
				}
				parts[k].lat = append(parts[k].lat, ms(rep.took))
				if ok {
					parts[k].ok++
				}
			}
		}(k)
	}
	wg.Wait()
	var out readStats
	for _, p := range parts {
		out.merge(p)
	}
	out.wall = time.Since(start)
	return out
}

// addReads pools a read loop's samples into the run.
func (r *run) addReads(s readStats) {
	r.s.reads.merge(s)
	r.input("reads", len(s.lat))
}

// deadline returns a stop function for a loop that runs for d.
func deadline(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return !time.Now().Before(end) }
}

// serverLayers derives the server-layer metrics of a traced run from the
// servers' handler spans (named "server") and the servers' own counters.
func serverLayers(r *run, srvs []*server.Server) {
	byRoute := map[string][]float64{}
	for _, s := range r.tr.snapshot() {
		if s.Name == "server" {
			byRoute[s.Attr] = append(byRoute[s.Attr], ms(s.dur()))
		}
	}
	r.setLayer("server.cell_p50_ms", median(byRoute["/v1/cell"]))
	r.setLayer("server.query_p50_ms", median(byRoute["/v2/query"]))
	r.setLayer("server.summary_p50_ms", median(byRoute["/v1/summary"]))
	var hits, misses int64
	for _, s := range srvs {
		m := s.Metrics()
		hits += m.Cache.Hits
		misses += m.Cache.Misses
	}
	if hits+misses > 0 {
		r.setLayer("server.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
}

// httpOverhead is the median, over reads, of client-side latency minus the
// time the first server-side handler (front: "server" or "router") spent.
func httpOverhead(r *run, front string) {
	spans := r.tr.snapshot()
	handled := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == front && s.Parent != 0 {
			handled[s.Parent] = s.dur()
		}
	}
	var overhead []float64
	for _, s := range spans {
		if d, ok := handled[s.ID]; ok && s.Name == "client" && s.Attr != "POST /admin/append" {
			overhead = append(overhead, ms(s.dur()-d))
		}
	}
	r.setLayer("server.http_overhead_ms", median(overhead))
}
