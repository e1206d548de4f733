package main

// The query and fanout workloads: a closed loop of 2 readers against a
// lazily opened, partially materialized snapshot, served by one server
// (query) or by a router over 2 shard servers (fanout).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"flowcube/internal/cluster"
	"flowcube/internal/core"
	"flowcube/internal/olap"
	"flowcube/internal/pathdb"
	"flowcube/internal/server"
)

// readClients is the closed-loop reader count: one per core of the 2-core
// machines the benchmark is sized for.
const readClients = 2

// served is a query/fanout input: the dropped snapshot on disk, the read
// list, and the full build's answers to check against.
type served struct {
	path string
	cube *core.Cube // the dropped build, until the caller releases it
	ts   []target
	reqs []request
	refs *refs
}

// buildSnapshot runs BuildContext then Save to an fsynced file, which is
// what flowquery -save does, and returns the pair's wall time. The heap is
// collected first, so garbage from earlier work is not billed to the build.
func buildSnapshot(r *run, db *pathdb.DB, cfg core.Config, path string) (*core.Cube, time.Duration, int64, error) {
	runtime.GC()
	var cube *core.Cube
	_, dBuild, err := r.tr.do(0, "core.build", func() error {
		var err error
		cube, err = core.BuildContext(context.Background(), db, cfg)
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("build: %w", err)
	}
	var n int64
	_, dSave, err := r.tr.do(0, "core.save", func() error {
		var err error
		n, err = writeSynced(path, cube.Save)
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("save: %w", err)
	}
	r.setLayer("core.build_s", seconds(dBuild))
	r.setLayer("core.save_s", seconds(dSave))
	r.setLayer("core.snapshot_bytes", float64(n))
	r.setLayer("core.cuboids", float64(len(cube.Cuboids)))
	r.setLayer("core.cells", float64(cube.NumCells()))
	return cube, dBuild + dSave, n, nil
}

// buildSamples builds and saves at least BuildReps times, more while the
// builds so far took under buildBudget (small cubes), pools every wall
// time as a build_s sample and the snapshot-to-input ratio, and returns
// the last cube and its snapshot size.
func buildSamples(r *run, db *pathdb.DB, cfg core.Config, path string, inputBytes int64) (*core.Cube, int64, error) {
	var cube *core.Cube
	var n int64
	start := time.Now()
	for i := 0; i < r.sz.BuildReps || (i < buildMaxReps && time.Since(start) < buildBudget); i++ {
		cube = nil
		c, d, size, err := buildSnapshot(r, db, cfg, path)
		if err != nil {
			return nil, 0, err
		}
		cube, n = c, size
		r.s.build = append(r.s.build, d.Seconds())
	}
	r.s.ratio = append(r.s.ratio, float64(n)/float64(inputBytes))
	return cube, n, nil
}

// Small builds repeat beyond BuildReps within these limits.
const (
	buildMaxReps = 9
	buildBudget  = time.Second
)

// prepareServed generates the d-dimension dataset, builds and saves it
// (timed as build_s), derives the read list and the check references from
// the full build, then, when drop is set, drops a seeded share of cuboids,
// and saves the snapshot that is served. routed shapes the read list for
// the cluster router.
func prepareServed(r *run, drop, routed bool) (*served, error) {
	sz := r.sz
	ds, err := dataset(r.phaseSeed(), sz.Paths, sz.Dims)
	if err != nil {
		return nil, err
	}
	fdbBytes, err := writeFDB(r.path("paths.fdb"), ds)
	if err != nil {
		return nil, err
	}
	full, snapBytes, err := buildSamples(r, ds.DB, coreConfig(ds, sz.MinSupport, false), r.path("full.fcb"), fdbBytes)
	if err != nil {
		return nil, err
	}
	p := &served{path: r.path("served.fcb"), ts: targets(full), cube: full}
	p.reqs = requests(r.phaseSeed(), full, p.ts, sz.Requests, routed)
	if p.refs, err = buildRefs(full, p.ts, sample(r.phaseSeed(), len(p.ts), sz.Samples)); err != nil {
		return nil, err
	}
	dropped := 0
	if drop {
		dropped = dropCuboids(r.phaseSeed(), full, sz.DropShare)
	}
	if _, err := writeSynced(p.path, full.Save); err != nil {
		return nil, err
	}
	r.input("paths", ds.DB.Len())
	r.input("dims", sz.Dims)
	r.input("min_support", sz.MinSupport)
	r.input("cuboids_built", len(full.Cuboids)+dropped)
	r.input("cuboids_dropped", dropped)
	r.input("cells", len(p.ts))
	r.input("fdb_bytes", fdbBytes)
	r.input("snapshot_bytes", snapBytes)
	r.input("lazy_budget", sz.LazyBudget)
	return p, nil
}

// startLazy opens a snapshot lazily behind a server, as flowserve -lazy
// does, and serves it.
func startLazy(path string, budget int64, tr *tracer) (*endpoint, error) {
	srv, err := server.New(server.FileLoader(path, server.BuildOptions{Lazy: true, LazyCacheBytes: budget}),
		path, server.Config{Logger: quiet})
	if err != nil {
		return nil, err
	}
	ep, err := serveServer(srv, tr, "server")
	if err != nil {
		_ = srv.Close() // the listen error is the one worth reporting
		return nil, err
	}
	return ep, nil
}

// ready waits for /healthz to answer 200.
func ready(ep *endpoint) error {
	c := newClient(ep.url, nil)
	defer c.close()
	if rep := c.get("/healthz"); rep.status != http.StatusOK {
		return fmt.Errorf("%s/healthz: status %d", ep.url, rep.status)
	}
	return nil
}

// setupTimed runs start at least SetupReps times, keeping the last
// deployment, pools each time from files on disk to ready as a setup_s
// sample, and returns the deployment with this phase's median.
func setupTimed(r *run, start func() ([]*endpoint, error)) ([]*endpoint, float64, error) {
	var eps []*endpoint
	ds, err := repeatTimed(r.sz.SetupReps, setupMaxReps, setupBudget, func(int) error {
		if eps != nil {
			if err := stopAll(eps); err != nil {
				return err
			}
		}
		var err error
		eps, err = start()
		return err
	})
	if err != nil {
		if eps != nil {
			_ = stopAll(eps) // the setup error is the one worth reporting
		}
		return nil, 0, err
	}
	r.s.setup = append(r.s.setup, ds...)
	return eps, median(ds), nil
}

func runQuery(r *run) error {
	p, err := prepareServed(r, true, false)
	if err != nil {
		return err
	}
	p.cube = nil
	runtime.GC() // the full build is garbage now; do not bill it to setup
	eps, _, err := setupTimed(r, func() ([]*endpoint, error) {
		ep, err := startLazy(p.path, r.sz.LazyBudget, r.tr)
		if err != nil {
			return nil, err
		}
		return []*endpoint{ep}, ready(ep)
	})
	if err != nil {
		return err
	}
	defer func() { _ = stopAll(eps) }() // teardown; results are already taken
	srv := eps[0].srv
	c := newClient(eps[0].url, r.tr)
	defer c.close()

	warm(r, c, p.reqs[:r.sz.Warm])
	before := lazyStats([]*server.Server{srv})
	stats := readLoop(r, c, p.reqs[r.sz.Warm:], readClients, deadline(r.phaseWindow()))
	r.addReads(stats)
	lazyLayers(r, before, lazyStats([]*server.Server{srv}), len(stats.lat))
	r.s.heap = append(r.s.heap, heapMiB())

	cube := srv.Snapshot().Cube
	for _, i := range p.refs.sample {
		r.check(digestCheck(cube, p.ts[i], p.refs) == nil, "digest of %s", p.ts[i].cell)
		for _, kind := range []string{kindCell, kindQueryCell} {
			rep := c.get(requestPath(cube, p.ts, request{kind: kind, t: i}))
			err := graphCheck(rep, kind, p.refs.graphs[i])
			r.check(err == nil, "%s %s: %v", kind, p.ts[i].cell, err)
		}
	}
	if r.tr != nil {
		serverLayers(r, []*server.Server{srv})
		httpOverhead(r, "server")
		answerLayers(r, p.reqs, func(request) *core.Cube { return cube })
		if err := codecLayers(r, p.path); err != nil {
			return err
		}
	}
	return nil
}

// fanoutShards is the shard count of the fanout workload.
const fanoutShards = 2

// runFanout serves the full build's shards: over a partially materialized
// snapshot the router's ancestor fallback diverges from a single node
// (NOTES.md, "Router divergence"). Passing drop=true to prepareServed below
// reproduces it: the byte-identity check then reports the diverging reads.
func runFanout(r *run) error {
	p, err := prepareServed(r, false, true)
	if err != nil {
		return err
	}
	files, err := cluster.WriteShards(p.cube, fanoutShards, r.path("shards"), runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	p.cube = nil
	runtime.GC() // the full build is garbage now; do not bill it to setup

	eps, _, err := setupTimed(r, func() ([]*endpoint, error) { return startCluster(r, files) })
	if err != nil {
		return err
	}
	defer func() { _ = stopAll(eps) }() // teardown; results are already taken
	shards := make([]*server.Server, fanoutShards)
	for i := range shards {
		shards[i] = eps[i].srv
	}
	front := eps[len(eps)-1]
	c := newClient(front.url, r.tr)
	defer c.close()

	warm(r, c, p.reqs[:r.sz.Warm])
	before := lazyStats(shards)
	stats := readLoop(r, c, p.reqs[r.sz.Warm:], readClients, deadline(r.phaseWindow()))
	r.addReads(stats)
	lazyLayers(r, before, lazyStats(shards), len(stats.lat))
	r.s.heap = append(r.s.heap, heapMiB())

	// Routed bodies must match a single node over the unsplit snapshot.
	single, err := startLazy(p.path, r.sz.LazyBudget, nil)
	if err != nil {
		return err
	}
	defer func() { _ = single.stop() }() // teardown
	sc := newClient(single.url, nil)
	defer sc.close()
	singleCube := single.srv.Snapshot().Cube
	for _, i := range p.refs.sample {
		r.check(digestCheck(singleCube, p.ts[i], p.refs) == nil, "digest of %s", p.ts[i].cell)
		for _, kind := range []string{kindCell, kindQueryCell} {
			path := requestPath(singleCube, p.ts, request{kind: kind, t: i})
			err := sameBody(c.get(path), sc.get(path))
			r.check(err == nil, "routed %s: %v", path, err)
		}
	}
	if r.tr != nil {
		serverLayers(r, shards)
		httpOverhead(r, "router")
		clusterLayers(r, c)
		part, err := cluster.NewPartitioner(singleCube.Schema, fanoutShards)
		if err != nil {
			return err
		}
		answerLayers(r, p.reqs, func(q request) *core.Cube {
			if q.kind != kindCell && q.kind != kindQueryCell {
				return nil
			}
			return shards[part.Owner(p.ts[q.t].values)].Snapshot().Cube
		})
		if err := codecLayers(r, files[0]); err != nil {
			return err
		}
	}
	return nil
}

// startCluster serves each shard file lazily and a router over them, as
// flowshard/flowrouter deployments do; the router comes last.
func startCluster(r *run, files []string) ([]*endpoint, error) {
	var eps []*endpoint
	fail := func(err error) ([]*endpoint, error) {
		_ = stopAll(eps) // the start error is the one worth reporting
		return nil, err
	}
	urls := make([]string, len(files))
	for i, f := range files {
		ep, err := startLazy(f, r.sz.LazyBudget, r.tr)
		if err != nil {
			return fail(err)
		}
		eps = append(eps, ep)
		urls[i] = ep.url
	}
	meta, err := loadMeta(files[0])
	if err != nil {
		return fail(err)
	}
	cfg := cluster.RouterConfig{Source: "perfbench", Logger: quiet}
	if r.tr != nil {
		cfg.Client = &http.Client{Transport: &transport{t: r.tr, name: "shard.call",
			base: &http.Transport{MaxIdleConnsPerHost: 32}}}
	}
	rt, err := cluster.NewRouter(meta, urls, cfg)
	if err != nil {
		return fail(err)
	}
	ep, err := serveRouter(rt, r.tr)
	if err != nil {
		return fail(err)
	}
	eps = append(eps, ep)
	return eps, ready(ep)
}

func loadMeta(path string) (*core.Cube, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return core.LoadMeta(f)
}

// lazyStats sums the lazy cache counters of the servers' current cubes.
func lazyStats(srvs []*server.Server) core.LazyStats {
	var sum core.LazyStats
	for _, s := range srvs {
		st, ok := s.Snapshot().Cube.LazyStats()
		if !ok {
			continue
		}
		sum.DecodedSections += st.DecodedSections
		sum.CachedBytes += st.CachedBytes
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.Evictions += st.Evictions
	}
	return sum
}

// lazyLayers reports the lazy cache's work over the timed reads.
func lazyLayers(r *run, before, after core.LazyStats, reads int) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		r.setLayer("core.lazy_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if reads > 0 {
		r.setLayer("core.lazy_decodes_per_read", float64(after.DecodedSections-before.DecodedSections)/float64(reads))
	}
	r.setLayer("core.lazy_evictions", float64(after.Evictions-before.Evictions))
	r.setLayer("core.lazy_cached_mb", float64(after.CachedBytes)/(1<<20))
}

// codecLayers times an eager Load and a lazy open of a snapshot file.
func codecLayers(r *run, path string) error {
	_, dLoad, err := r.tr.do(0, "core.load", func() error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }() // read-only
		_, err = core.Load(f)
		return err
	})
	if err != nil {
		return err
	}
	_, dLazy, err := r.tr.do(0, "core.lazy_open", func() error {
		c, err := core.LoadCubeLazy(path, core.LazyOptions{CacheBytes: r.sz.LazyBudget})
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return err
	}
	r.setLayer("core.load_s", seconds(dLoad))
	r.setLayer("core.lazy_open_s", seconds(dLazy))
	return nil
}

// answerLayers replays the first ReplayOps reads of the list in process:
// olap.ParseQuery, Cube.Answer, then server.RenderQueryResponse, the calls
// a /v2/query read makes. cubeFor picks the cube that answers a read, nil
// to skip it.
func answerLayers(r *run, reqs []request, cubeFor func(request) *core.Cube) {
	byProv := map[core.Provenance][]float64{}
	var answered, computed, refused int
	for _, q := range reqs[:min(len(reqs), r.sz.ReplayOps)] {
		if q.t < 0 {
			continue
		}
		cube := cubeFor(q)
		if cube == nil {
			continue
		}
		u, err := url.Parse(q.path)
		if err != nil {
			continue
		}
		cq, err := olap.ParseQuery(cube, u.Query())
		if err != nil {
			refused++
			continue
		}
		var a *core.Answer
		id, d, err := r.tr.do(0, "core.answer", func() error {
			var err error
			a, err = cube.Answer(context.Background(), cq)
			return err
		})
		if err != nil {
			refused++
			continue
		}
		_, _, _ = r.tr.do(id, "server.render", func() error {
			_ = server.RenderQueryResponse(cube, a)
			return nil
		})
		for _, ca := range a.Cells {
			answered++
			if ca.Provenance == core.ComputedFromDescendants {
				computed++
			}
		}
		if len(a.Cells) == 1 {
			byProv[a.Cells[0].Provenance] = append(byProv[a.Cells[0].Provenance], float64(d.Microseconds()))
		}
	}
	r.setLayer("core.answer_materialized_us", median(byProv[core.Materialized]))
	r.setLayer("core.answer_computed_us", median(byProv[core.ComputedFromDescendants]))
	r.setLayer("core.answer_ancestor_us", median(byProv[core.AncestorFallback]))
	if answered > 0 {
		r.setLayer("core.computed_share", float64(computed)/float64(answered))
	}
	r.setLayer("core.answer_refused", float64(refused))
}

// clusterLayers derives the router's fan-out costs from its spans: shard
// calls per routed read, shard-side latency, and the router's own time
// (routed latency minus its slowest shard's server-side time).
func clusterLayers(r *run, c *client) {
	spans := r.tr.snapshot()
	calls := map[int64][]int64{} // router span -> its shard-call span ids
	served := map[int64]time.Duration{}
	var shardMs []float64
	var callErrors int
	for _, s := range spans {
		switch s.Name {
		case "shard.call":
			calls[s.Parent] = append(calls[s.Parent], s.ID)
			if s.Attr != "200" {
				callErrors++
			}
		case "server":
			served[s.Parent] = s.dur()
			shardMs = append(shardMs, ms(s.dur()))
		}
	}
	var reads, nCalls int
	var self []float64
	for _, s := range spans {
		if s.Name != "router" || !strings.HasPrefix(s.Attr, "/v") {
			continue
		}
		reads++
		nCalls += len(calls[s.ID])
		var slowest time.Duration
		for _, id := range calls[s.ID] {
			slowest = max(slowest, served[id])
		}
		self = append(self, ms(s.dur()-slowest))
	}
	if reads > 0 {
		r.setLayer("cluster.shard_calls_per_read", float64(nCalls)/float64(reads))
	}
	r.setLayer("cluster.shard_p50_ms", median(shardMs))
	r.setLayer("cluster.router_self_ms", median(self))
	var m struct {
		ShardErrors int64 `json:"shard_errors"`
	}
	if rep := c.get("/metrics"); rep.status == http.StatusOK && json.Unmarshal(rep.body, &m) == nil {
		r.setLayer("cluster.shard_errors", float64(m.ShardErrors)+float64(callErrors))
	} else {
		r.fail("router /metrics: status %d", rep.status)
	}
}
