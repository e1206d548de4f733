package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"flowcube/internal/core"
)

// smokeWindow keeps every workload's measured phase short.
const smokeWindow = 300 * time.Millisecond

// TestWorkloadsSmoke runs every workload at smoke size, untraced and
// traced, and requires a correct result carrying every metric.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			res, _, err := execute(name, workloads[name], 3, smokeWindow, traced, smokeSizes, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.name, got.Value)
				}
			}
		}
	}
}

// TestResultLine checks the command-line contract: the last stdout line is
// one JSON object with exactly correct, attempted, failed and metrics.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "ingest", "--seed", "5", "--seconds", "0.3", "--trace", "0", "--smoke",
		"--work", t.TempDir(), "--out", t.TempDir()}
	if err := mainErr(args, &out, &errOut); err != nil {
		t.Fatalf("%v\n%s", err, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	keys := sortedKeys(res)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
}

// TestBadArgs requires an error, not a result, for unusable arguments.
func TestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "build", "--trace", "2"},
		{"--workload", "build", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if err := mainErr(args, &out, &errOut); err == nil || out.Len() != 0 {
			t.Errorf("%v: err=%v, stdout %q", args, err, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(sortedKeys(workloads), ","); got != want {
		t.Errorf("workloads %s, want %s", got, want)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per_layer[%d] = %+v, want %+v", i, m, perLayer[i])
		}
	}
}

// TestWriterStopsOnRejectedAppends requires a writer loop against a server
// that rejects every append to end after its attempts, each one counted
// as a failed op.
func TestWriterStopsOnRejectedAppends(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "refused", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	r := &run{workload: "rejected", sz: smokeSizes, e2e: map[string]float64{}}
	c := newClient(srv.URL, nil)
	defer c.close()
	in := &ingestInput{bodies: [][]byte{[]byte("batch")}}
	m := writeRead(r, c, in, 0, func(n int) bool { return n >= 5 }, nil)
	if len(m.acked) != 0 || r.attempted.Load() != 5 || r.failed.Load() != 5 {
		t.Errorf("acked %d, attempted %d, failed %d; want 0, 5, 5", len(m.acked), r.attempted.Load(), r.failed.Load())
	}
}

// TestRestartReproducesSave is the durability check: a server restarted
// over the same WAL serves a cube whose Save bytes equal the pre-restart
// ones.
func TestRestartReproducesSave(t *testing.T) {
	r := &run{workload: "restart", seed: 4, sz: smokeSizes, dir: t.TempDir(), e2e: map[string]float64{}}
	spec := ingestSpec{paths: 300, base: 150, dims: 2, minSupport: 0.05, batch: 5, journaled: 2, batches: 10}
	in, err := prepareIngest(r, spec, "restart", false)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := startIngest(in, smokeSizes.LazyBudget, in.wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(ep.url, nil)
	defer c.close()
	for i := spec.journaled; i < spec.batches; i++ {
		if rep := c.do(http.MethodPost, "/admin/append", in.bodies[i]); rep.status != http.StatusOK {
			t.Fatalf("append %d: status %d: %s", i, rep.status, rep.body)
		}
	}
	before := saveBytes(t, ep.srv.Snapshot().Cube)
	if err := ep.stop(); err != nil {
		t.Fatal(err)
	}
	again, err := startIngest(in, smokeSizes.LazyBudget, in.wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = again.stop() }()
	if err := sameBytes(saveBytes(t, again.srv.Snapshot().Cube), before); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	acked := make([]int, 0, spec.batches)
	for i := spec.journaled; i < spec.batches; i++ {
		acked = append(acked, i)
	}
	if err := foldCheck(again.srv, in.cfg, in.expected(acked)); err != nil {
		t.Fatalf("after restart vs full build: %v", err)
	}
}

func saveBytes(t *testing.T, cube *core.Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestChecksCatchFlippedByte flips one byte of a response, a digest or a
// snapshot and requires every check to report it.
func TestChecksCatchFlippedByte(t *testing.T) {
	r := &run{workload: "checks", seed: 6, sz: smokeSizes, dir: t.TempDir(), e2e: map[string]float64{}}
	p, err := prepareServed(r, true, false)
	if err != nil {
		t.Fatal(err)
	}
	full := saveBytes(t, p.cube)
	ep, err := startLazy(p.path, smokeSizes.LazyBudget, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ep.stop() }()
	c := newClient(ep.url, nil)
	defer c.close()
	cube := ep.srv.Snapshot().Cube

	var exact int
	for _, i := range p.refs.sample {
		if err := digestCheck(cube, p.ts[i], p.refs); err != nil {
			t.Fatalf("clean digest check of %s: %v", p.ts[i].cell, err)
		}
		for _, kind := range []string{kindCell, kindQueryCell} {
			rep := c.get(requestPath(cube, p.ts, request{kind: kind, t: i}))
			if err := graphCheck(rep, kind, p.refs.graphs[i]); err != nil {
				t.Fatalf("clean %s check of %s: %v", kind, p.ts[i].cell, err)
			}
			if err := sameBody(rep, rep); err != nil {
				t.Fatal(err)
			}
			flipped := rep
			flipped.body = flip(rep.body, bytes.Index(rep.body, []byte(`"graph"`))+20)
			if sameBody(flipped, rep) == nil {
				t.Errorf("sameBody missed a flipped byte")
			}
			if bytes.Contains(rep.body, []byte(`"exact": true`)) {
				exact++
				if graphCheck(flipped, kind, p.refs.graphs[i]) == nil {
					t.Errorf("graphCheck missed a flipped byte in %s", p.ts[i].cell)
				}
			}
		}
		key := cellRef(p.ts[i].spec, p.ts[i].values)
		orig := p.refs.digests[key]
		bad := orig
		bad[0] ^= 1
		p.refs.digests[key] = bad
		if a, err := cube.Answer(context.Background(), core.Query{Spec: p.ts[i].spec, Values: p.ts[i].values}); err == nil && a.Cells[0].Exact {
			if digestCheck(cube, p.ts[i], p.refs) == nil {
				t.Errorf("digestCheck missed a flipped digest byte for %s", p.ts[i].cell)
			}
		}
		p.refs.digests[key] = orig
	}
	if exact == 0 {
		t.Fatal("no exact answers sampled; the graph check went untested")
	}
	if sameBytes(flip(full, len(full)/2), full) == nil {
		t.Error("sameBytes missed a flipped snapshot byte")
	}
	if reloadCheck(flip(full, len(full)-1)) == nil {
		t.Error("reloadCheck accepted a corrupted snapshot")
	}
	if reloadCheck(full) != nil {
		t.Error("reloadCheck rejected a clean snapshot")
	}
}

// flip returns a copy of b with the byte at i changed.
func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x01
	return out
}

// TestSelfTime checks the span arithmetic: a parent's self time excludes
// the union of its children, overlap counted once and clipped to the
// parent: 100 - ([10,40] + [90,100]) = 60.
func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 60 {
		t.Errorf("self time %d, want 60", got)
	}
}
