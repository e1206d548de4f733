package main

// The ingest workload: one writer posts fixed-size batches to
// /admin/append while one reader issues the read mix, against a lazily
// opened snapshot with its path database attached and the WAL on, as
// `flowserve -lazy -db paths.fdb -wal ingest.wal` runs. The companion
// probe is the same deployment at a small size with a fixed amount of work.

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/incr"
	"flowcube/internal/ingest"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
	"flowcube/internal/server"
)

// ingestSpec shapes one ingest deployment.
type ingestSpec struct {
	paths, base, dims int
	minSupport        float64
	batch, journaled  int
	batches           int // append batches generated (cycled when exhausted)
}

// ingestInput is a prepared deployment: files on disk plus the batches.
type ingestInput struct {
	spec    ingestSpec
	cfg     core.Config
	base    []pathdb.Record
	batches [][]pathdb.Record
	bodies  [][]byte
	snap    string // base snapshot
	fdb     string // base path database
	wal     string // WAL holding the first spec.journaled batches
	reqs    []request
}

// prepareIngest generates the dataset, builds and saves the base snapshot
// (timed as build_s when report is set), renders the append batches and
// pre-journals the first spec.journaled of them.
func prepareIngest(r *run, spec ingestSpec, name string, report bool) (*ingestInput, error) {
	ds, err := dataset(r.phaseSeed(), spec.paths, spec.dims)
	if err != nil {
		return nil, err
	}
	in := &ingestInput{spec: spec, base: ds.DB.Records[:spec.base],
		snap: r.path(name + ".fcb"), fdb: r.path(name + ".fdb"), wal: r.path(name + ".wal")}
	baseDS := &datagen.Dataset{Config: ds.Config, Schema: ds.Schema,
		DB: &pathdb.DB{Schema: ds.DB.Schema, Records: in.base}}
	fdbBytes, err := writeFDB(in.fdb, baseDS)
	if err != nil {
		return nil, err
	}
	// incr.ApplyDelta needs an absolute threshold; resolve δ over the base.
	minCount, err := mining.ResolveMinCount(mining.Options{MinSupport: spec.minSupport}, spec.base)
	if err != nil {
		return nil, err
	}
	in.cfg = coreConfig(ds, 0, true)
	in.cfg.MinCount = minCount
	var cube *core.Cube
	if report {
		var n int64
		cube, n, err = buildSamples(r, baseDS.DB, in.cfg, in.snap, fdbBytes)
		if err != nil {
			return nil, err
		}
		r.input("paths", spec.base)
		r.input("dims", spec.dims)
		r.input("min_count", minCount)
		r.input("cuboids", len(cube.Cuboids))
		r.input("cells", cube.NumCells())
		r.input("fdb_bytes", fdbBytes)
		r.input("snapshot_bytes", n)
		r.input("lazy_budget", r.sz.LazyBudget)
		r.input("batch_records", spec.batch)
		r.input("journaled_batches", spec.journaled)
	} else {
		if cube, err = core.Build(baseDS.DB, in.cfg); err != nil {
			return nil, err
		}
		if _, err := writeSynced(in.snap, cube.Save); err != nil {
			return nil, err
		}
	}
	ts := targets(cube)
	in.reqs = requests(r.phaseSeed(), cube, ts, r.sz.Requests, false)

	in.batches = batches(ds.DB.Records[spec.base:], spec.batches, spec.batch)
	for _, b := range in.batches {
		body, err := batchBody(ds.DB.Schema, b)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	w, err := ingest.Open(in.wal)
	if err != nil {
		return nil, err
	}
	for _, b := range in.batches[:spec.journaled] {
		if err := w.Append(ds.DB.Schema, b); err != nil {
			_ = w.Close() // the append error is the one worth reporting
			return nil, err
		}
	}
	if err := w.Sync(); err != nil {
		_ = w.Close() // the sync error is the one worth reporting
		return nil, err
	}
	return in, w.Close()
}

// startIngest serves the base snapshot lazily with the database attached
// and the WAL at walPath replayed, as flowserve -lazy -db -wal does.
func startIngest(in *ingestInput, budget int64, walPath string, tr *tracer) (*endpoint, error) {
	loader := server.WithDatabase(server.FileLoader(in.snap, server.BuildOptions{Lazy: true, LazyCacheBytes: budget}), in.fdb)
	srv, err := server.New(loader, in.snap, server.Config{Logger: quiet, WALPath: walPath})
	if err != nil {
		return nil, err
	}
	ep, err := serveServer(srv, tr, "server")
	if err != nil {
		_ = srv.Close() // the listen error is the one worth reporting
		return nil, err
	}
	return ep, ready(ep)
}

// mixed are the results of a writer-plus-reader loop.
type mixed struct {
	appendMs []float64
	acked    []int // batch indices acknowledged, in order
	wall     time.Duration
	reads    readStats
}

// writeRead runs one closed-loop writer posting batches from index first
// on until writerDone, given the number of appends attempted so far, says
// so, beside one closed-loop reader that runs until readerDone does (no
// reader when readerDone is nil). A failed append counts as a failed op
// and as an attempt, so a server that rejects every append still ends the
// loop.
func writeRead(r *run, c *client, in *ingestInput, first int, writerDone func(n int) bool, readerDone func() bool) mixed {
	var out mixed
	var wg sync.WaitGroup
	if readerDone != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out.reads = readLoop(r, c, in.reqs[r.sz.Warm:], 1, readerDone)
		}()
	}
	start := time.Now()
	for i := first; !writerDone(i - first); i++ {
		b := i % len(in.bodies)
		rep := c.do(http.MethodPost, "/admin/append", in.bodies[b])
		ok := rep.status == http.StatusOK
		r.op(ok)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: append %d: status %d: %s\n", r.workload, i, rep.status, rep.body)
			continue
		}
		out.appendMs = append(out.appendMs, ms(rep.took))
		out.acked = append(out.acked, b)
	}
	out.wall = time.Since(start)
	wg.Wait()
	return out
}

// addAppends pools a writer's samples into the run.
func (r *run) addAppends(m mixed) {
	r.s.appendMs = append(r.s.appendMs, m.appendMs...)
	r.s.appends += len(m.acked)
	r.s.appendWall += m.wall
	r.input("appends", len(m.acked))
}

// expected is the database the served cube must equal after the loop: the
// base, the journaled batches, then every acknowledged batch in order.
func (in *ingestInput) expected(acked []int) []pathdb.Record {
	recs := append([]pathdb.Record(nil), in.base...)
	for _, b := range in.batches[:in.spec.journaled] {
		recs = append(recs, b...)
	}
	for _, b := range acked {
		recs = append(recs, in.batches[b]...)
	}
	return recs
}

// foldCheck requires the served cube's Save bytes to equal a full Build
// over recs.
func foldCheck(srv *server.Server, cfg core.Config, recs []pathdb.Record) error {
	snap := srv.Snapshot()
	if n := snap.DB.Len(); n != len(recs) {
		return fmt.Errorf("served database holds %d records, want %d", n, len(recs))
	}
	want, err := core.Build(&pathdb.DB{Schema: snap.DB.Schema, Records: recs}, cfg)
	if err != nil {
		return err
	}
	var got, ref bytes.Buffer
	if err := snap.Cube.Save(&got); err != nil {
		return err
	}
	if err := want.Save(&ref); err != nil {
		return err
	}
	return sameBytes(got.Bytes(), ref.Bytes())
}

func runIngest(r *run) error {
	sz := r.sz
	spec := ingestSpec{paths: sz.IngestPaths, base: sz.IngestBase, dims: sz.IngestDims,
		minSupport: sz.IngestMinSupport, batch: sz.BatchRecords, journaled: sz.Journaled,
		batches: (sz.IngestPaths - sz.IngestBase) / sz.BatchRecords}
	in, err := prepareIngest(r, spec, "ingest", true)
	if err != nil {
		return err
	}
	// One fresh copy of the journal per setup, made off the clock.
	for i := 0; i < max(sz.SetupReps, setupMaxReps); i++ {
		if err := copyFile(fmt.Sprintf("%s.%d", in.wal, i), in.wal); err != nil {
			return err
		}
	}
	rep := 0
	eps, setup, err := setupTimed(r, func() ([]*endpoint, error) {
		ep, err := startIngest(in, sz.LazyBudget, fmt.Sprintf("%s.%d", in.wal, rep), r.tr)
		rep++
		if ep == nil {
			return nil, err
		}
		return []*endpoint{ep}, err
	})
	if err != nil {
		return err
	}
	defer func() { _ = stopAll(eps) }() // teardown; results are already taken
	srv := eps[0].srv
	want := spec.base + spec.journaled*spec.batch
	r.check(srv.Snapshot().DB.Len() == want, "after replay: %d records, want %d", srv.Snapshot().DB.Len(), want)

	c := newClient(eps[0].url, r.tr)
	defer c.close()
	warm(r, c, in.reqs[:sz.Warm])
	stop := deadline(r.phaseWindow())
	m := writeRead(r, c, in, spec.journaled, func(int) bool { return stop() }, stop)
	r.addAppends(m)
	r.addReads(m.reads)
	r.s.heap = append(r.s.heap, heapMiB())
	err = foldCheck(srv, in.cfg, in.expected(m.acked))
	r.check(err == nil, "served cube vs full build: %v", err)

	if r.tr != nil {
		serverLayers(r, []*server.Server{srv})
		httpOverhead(r, "server")
		r.setLayer("ingest.group_p50", float64(srv.Metrics().Ingest.GroupP50))
		answerLayers(r, in.reqs, func(request) *core.Cube { return srv.Snapshot().Cube })
		if err := replayLayers(r, in, setup); err != nil {
			return err
		}
		if err := codecLayers(r, in.snap); err != nil {
			return err
		}
	}
	return nil
}

// replayLayers measures the write path's layers one call at a time, in the
// order a commit makes them: Materialize, incr.ApplyDelta, WAL.Append,
// WAL.Sync. It also derives WAL replay cost per entry from a setup without
// the journal.
func replayLayers(r *run, in *ingestInput, setup float64) error {
	var noWAL *endpoint
	ds, err := repeatTimed(r.sz.SetupReps, setupMaxReps, setupBudget, func(int) error {
		if noWAL != nil {
			if err := noWAL.stop(); err != nil {
				return err
			}
		}
		var err error
		noWAL, err = startIngest(in, r.sz.LazyBudget, "", nil)
		return err
	})
	if noWAL != nil {
		_ = noWAL.stop() // only its start-up time was wanted
	}
	if err != nil {
		return err
	}
	if in.spec.journaled > 0 {
		r.setLayer("ingest.replay_s_per_entry", (setup-median(ds))/float64(in.spec.journaled))
	}

	cube, err := core.LoadCubeLazy(in.snap, core.LazyOptions{CacheBytes: r.sz.LazyBudget})
	if err != nil {
		return err
	}
	defer func() { _ = cube.Close() }() // read-only map
	db := &pathdb.DB{Schema: cube.Schema, Records: append([]pathdb.Record(nil), in.base...)}
	w, err := ingest.Open(r.path("replay.wal"))
	if err != nil {
		return err
	}
	defer func() { _ = w.Close() }() // scratch journal
	var mat, apply, walAppend, walSync, touched, admitted, copied []float64
	records := 0
	serving := cube
	for i, b := range in.batches[:min(len(in.batches), 10)] {
		root, rootStart := r.tr.begin()
		var next *core.Cube
		_, dMat, err := r.tr.do(root, "core.materialize", func() error {
			var err error
			next, err = serving.Materialize()
			return err
		})
		if err != nil {
			return err
		}
		var st *incr.Stats
		_, dApply, err := r.tr.do(root, "incr.apply_delta", func() error {
			var err error
			st, err = incr.ApplyDelta(next, db, b)
			return err
		})
		if err != nil {
			return fmt.Errorf("replay batch %d: %w", i, err)
		}
		_, dAppend, err := r.tr.do(root, "ingest.wal_append", func() error { return w.Append(db.Schema, b) })
		if err != nil {
			return err
		}
		_, dSync, err := r.tr.do(root, "ingest.wal_sync", w.Sync)
		if err != nil {
			return err
		}
		r.tr.end(root, 0, 0, "fold", rootStart, "")
		records += len(b)
		serving = next
		mat = append(mat, seconds(dMat))
		apply = append(apply, seconds(dApply))
		walAppend = append(walAppend, seconds(dAppend))
		walSync = append(walSync, seconds(dSync))
		touched = append(touched, float64(st.CellsTouched))
		admitted = append(admitted, float64(st.CellsAdmitted))
		if st.CellsTouched > 0 {
			copied = append(copied, float64(next.NumCells())/float64(st.CellsTouched))
		}
	}
	r.setLayer("core.materialize_s", median(mat))
	r.setLayer("incr.apply_delta_s", median(apply))
	r.setLayer("incr.cells_touched", median(touched))
	r.setLayer("incr.cells_admitted", median(admitted))
	r.setLayer("incr.copy_per_touched", median(copied))
	r.setLayer("ingest.wal_append_s", median(walAppend))
	r.setLayer("ingest.wal_sync_s", median(walSync))
	if records > 0 {
		r.setLayer("ingest.wal_bytes_per_record", float64(w.Size())/float64(records))
	}
	return nil
}

// companion measures the metrics a workload's own path lacks on a small
// ingest-shaped deployment with a fixed amount of work, pooled over as many
// datasets as the workload has phases: per dataset, when reads is set, a
// warm-up pass and ProbeReads reads, then ProbeAppends appends, one
// closed-loop client each, one after the other.
func companion(r *run, reads bool) error {
	for k := 0; k < r.sz.Phases; k++ {
		r.phase = r.sz.Phases + k // seeds and files apart from the workload's phases
		if err := companionPhase(r, reads); err != nil {
			return fmt.Errorf("companion %d: %w", k, err)
		}
	}
	return nil
}

func companionPhase(r *run, reads bool) error {
	sz := r.sz
	spec := ingestSpec{paths: sz.ProbePaths, base: sz.ProbeBase, dims: sz.ProbeDims,
		minSupport: sz.IngestMinSupport, batch: sz.ProbeBatch,
		batches: (sz.ProbePaths - sz.ProbeBase) / sz.ProbeBatch}
	runtime.GC() // every probe starts from a collected heap
	in, err := prepareIngest(r, spec, "probe", false)
	if err != nil {
		return err
	}
	ep, err := startIngest(in, sz.LazyBudget, in.wal, nil)
	if err != nil {
		if ep != nil {
			_ = ep.stop() // the start error is the one worth reporting
		}
		return err
	}
	defer func() { _ = ep.stop() }() // teardown; results are already taken
	c := newClient(ep.url, nil)
	defer c.close()
	if reads {
		warm(r, c, in.reqs[:sz.Warm])
		n := 0
		r.addReads(readLoop(r, c, in.reqs[sz.Warm:], 1, func() bool { n++; return n > sz.ProbeReads }))
	}
	m := writeRead(r, c, in, 0, func(n int) bool { return n >= sz.ProbeAppends }, nil)
	r.addAppends(m)
	err = foldCheck(ep.srv, in.cfg, in.expected(m.acked))
	r.check(err == nil, "companion cube vs full build: %v", err)
	return nil
}
