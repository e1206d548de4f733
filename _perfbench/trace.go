package main

// Spans recorded from outside the program: around calls into a layer's
// public functions, around HTTP handlers (wrapping Server.Handler and
// Router.Handler), and around the router's shard calls (a RoundTripper in
// RouterConfig.Client). Spans are kept in memory and written out when the
// run ends. Request ids and parent span ids cross HTTP hops in headers the
// program ignores.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	ridHeader    = "X-Perfbench-Rid"
	parentHeader = "X-Perfbench-Parent"
)

// span is one timed interval. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Rid    int64  `json:"rid,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   string `json:"attr,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin allocates a span id and stamps its start. A nil tracer records
// nothing, so untraced code paths call the same functions.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.nextID.Add(1), time.Now()
}

// end records a span begun with begin.
func (t *tracer) end(id, parent, rid int64, name string, start time.Time, attr string) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Rid: rid, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: time.Since(t.t0).Nanoseconds(), Attr: attr}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// do runs fn inside a span and returns its id and duration.
func (t *tracer) do(parent int64, name string, fn func() error) (int64, time.Duration, error) {
	id, start := t.begin()
	if t == nil {
		start = time.Now()
	}
	err := fn()
	d := time.Since(start)
	t.end(id, parent, 0, name, start, "")
	return id, d, err
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each span name's self time in milliseconds: its duration
// minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.snapshot()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(selfTime(s, children[s.ID]))
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, curLo, curHi := int64(0), int64(-1), int64(-1)
	for _, v := range ivs {
		if v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	return s.dur() - time.Duration(covered)
}

// write dumps the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+name+".json")
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// spanKey carries the enclosing handler span through a request context,
// so shard calls made under it can name their parent.
type spanKey struct{}

type spanRef struct{ id, rid int64 }

// handler wraps an HTTP handler in a span named name; the parent and
// request id come from the caller's headers.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid, _ := strconv.ParseInt(r.Header.Get(ridHeader), 10, 64)       // absent: 0, an untagged span
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64) // absent: 0, a root span
		id, start := t.begin()
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id, rid})
		next.ServeHTTP(w, r.WithContext(ctx))
		t.end(id, parent, rid, name, start, r.URL.Path)
	})
}

// transport records a span per outgoing request and tags it with the
// enclosing handler span's ids.
type transport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, _ := req.Context().Value(spanKey{}).(spanRef) // absent: a root span
	id, start := tt.t.begin()
	out := req.Clone(req.Context())
	out.Header.Set(ridHeader, strconv.FormatInt(ref.rid, 10))
	out.Header.Set(parentHeader, strconv.FormatInt(id, 10))
	resp, err := tt.base.RoundTrip(out)
	attr := "error"
	if err == nil {
		attr = strconv.Itoa(resp.StatusCode)
	}
	tt.t.end(id, ref.id, ref.rid, tt.name, start, attr)
	return resp, err
}
