package main

// The build workload: parse an .fdb, then BuildContext and Save it to an
// fsynced snapshot, repeatedly, as flowquery -in paths.fdb -save does.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/mining"
	"flowcube/internal/transact"
)

func runBuild(r *run) error {
	sz := r.sz
	gen, err := dataset(r.phaseSeed(), sz.Paths, sz.Dims)
	if err != nil {
		return err
	}
	fdb := r.path("paths.fdb")
	fdbBytes, err := writeFDB(fdb, gen)
	if err != nil {
		return err
	}
	gen = nil

	var ds *datagen.Dataset
	parses, err := repeatTimed(sz.SetupReps, setupMaxReps, setupBudget, func(int) error {
		_, _, err := r.tr.do(0, "pathdb.parse", func() error {
			var err error
			ds, err = readFDB(fdb)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	r.s.setup = append(r.s.setup, parses...)
	r.setLayer("pathdb.parse_s", median(parses))
	cfg := coreConfig(ds, sz.MinSupport, true)

	// Build while another build still fits in the phase's window (at least
	// once); every build saves the same bytes.
	snap := r.path("cube.fcb")
	var builds []float64
	var first [sha256.Size]byte
	var size int64
	var last *core.Cube
	start := time.Now()
	for len(builds) == 0 || time.Since(start)+time.Duration(median(builds)*float64(time.Second)) <= r.phaseWindow() {
		cube, took, n, err := buildSnapshot(r, ds.DB, cfg, snap)
		if err != nil {
			return err
		}
		builds = append(builds, seconds(took))
		last, size = cube, n
		b, err := os.ReadFile(snap)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		if len(builds) == 1 {
			first = sum
		}
		r.check(sum == first, "build %d saved different bytes than build 1", len(builds))
	}
	r.s.build = append(r.s.build, builds...)
	r.s.ratio = append(r.s.ratio, float64(size)/float64(fdbBytes))
	// A build's memory is the cube it leaves behind: flowquery holds it to
	// answer queries after building.
	r.s.heap = append(r.s.heap, heapMiB())
	r.input("paths", ds.DB.Len())
	r.input("dims", sz.Dims)
	r.input("min_support", sz.MinSupport)
	r.input("cuboids", len(last.Cuboids))
	r.input("cells", last.NumCells())
	last = nil
	r.input("fdb_bytes", fdbBytes)
	r.input("snapshot_bytes", size)
	r.input("builds", len(builds))

	// The saved snapshot reloads, and re-saving it reproduces its bytes
	// (checked on the first phase: a reload costs about half a build).
	if r.phase == 0 {
		saved, err := os.ReadFile(snap)
		if err != nil {
			return err
		}
		err = reloadCheck(saved)
		r.check(err == nil, "snapshot reload: %v", err)
	}

	if r.tr != nil {
		if err := buildLayers(r, ds, cfg); err != nil {
			return err
		}
		if err := codecLayers(r, snap); err != nil {
			return err
		}
	}
	return nil
}

// reloadCheck loads a snapshot and requires its re-Save to be identical.
func reloadCheck(saved []byte) error {
	cube, err := core.Load(bytes.NewReader(saved))
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if err := cube.Save(&again); err != nil {
		return err
	}
	return sameBytes(again.Bytes(), saved)
}

// buildLayers replays the build's stages one layer at a time: encode the
// database into transactions, mine them, populate the cells. Their sum
// against BuildContext's time leaves core's own share (core.build_self_s).
func buildLayers(r *run, ds *datagen.Dataset, cfg core.Config) error {
	root, rootStart := r.tr.begin()
	syms, err := transact.NewSymbols(ds.Schema, cfg.Plan)
	if err != nil {
		return err
	}
	var txs []transact.Transaction
	_, dEnc, _ := r.tr.do(root, "transact.encode", func() error {
		txs = syms.Encode(ds.DB)
		return nil
	})
	items := 0
	for _, tx := range txs {
		items += len(tx)
	}
	opts := mining.SharedOptions(cfg.MinSupport)
	opts.Workers = cfg.Workers
	var res *mining.Result
	_, dMine, err := r.tr.do(root, "mining.mine", func() error {
		var err error
		res, err = mining.Mine(syms, txs, opts)
		return err
	})
	if err != nil {
		return err
	}
	var candidates, frequent int
	for _, l := range res.Levels {
		candidates += l.Counted
		frequent += l.Frequent
	}
	_, populate, _, err := core.PopulateBench(ds.DB, cfg)
	if err != nil {
		return err
	}
	_, dPop, _ := r.tr.do(root, "core.populate", func() error {
		populate()
		return nil
	})
	r.tr.end(root, 0, 0, "build.replay", rootStart, "")
	runtime.GC()

	r.setLayer("transact.encode_s", seconds(dEnc))
	if len(txs) > 0 {
		r.setLayer("transact.items_per_tx", float64(items)/float64(len(txs)))
	}
	r.setLayer("mining.mine_s", seconds(dMine))
	r.setLayer("mining.candidates", float64(candidates))
	r.setLayer("mining.frequent", float64(frequent))
	if candidates > 0 {
		r.setLayer("mining.useful_ratio", float64(frequent)/float64(candidates))
	}
	r.setLayer("mining.scans", float64(res.Scans))
	r.setLayer("core.populate_s", seconds(dPop))
	r.setLayer("core.build_self_s", r.layer["core.build_s"]-seconds(dEnc+dMine+dPop))
	if r.layer["core.build_s"] == 0 {
		return fmt.Errorf("build layers: no timed build")
	}
	return nil
}
