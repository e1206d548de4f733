// Command perfbench is the repository benchmark. It drives four workloads —
// build, query, ingest and fanout — through FlowCube's public entry points
// (core, server, cluster, incr, ingest) over inputs it generates from a
// seed, checks every answer it times, and prints one JSON result line:
//
//	perfbench --workload query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// runs the workload twice, untraced then traced, and reports the per-layer
// breakdown plus the tracing overhead. Spans are written to .bench_out/.
// Sizes and workload rationale are in NOTES.md; run.sh builds this module
// and execs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// unit names as they appear in BENCHMARK.json.
const (
	unitS     = "s"
	unitMs    = "ms"
	unitUs    = "us"
	unitRPS   = "req/s"
	unitRatio = "ratio"
	unitMiB   = "MiB"
	unitCount = "count"
	unitBytes = "bytes"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics every workload reports (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", unitS},
	{"build_s", unitS},
	{"snapshot_bytes_ratio", unitRatio},
	{"read_rps", unitRPS},
	{"read_p50_ms", unitMs},
	{"read_p99_ms", unitMs},
	{"heap_mb", unitMiB},
	{"append_rps", unitRPS},
	{"append_p50_ms", unitMs},
	{"append_p90_ms", unitMs},
}

// perLayer lists the traced metrics every workload reports (--trace 1).
// A layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"pathdb.parse_s", unitS},
	{"transact.encode_s", unitS},
	{"transact.items_per_tx", unitCount},
	{"mining.mine_s", unitS},
	{"mining.candidates", unitCount},
	{"mining.frequent", unitCount},
	{"mining.useful_ratio", unitRatio},
	{"mining.scans", unitCount},
	{"core.build_s", unitS},
	{"core.build_self_s", unitS},
	{"core.populate_s", unitS},
	{"core.cuboids", unitCount},
	{"core.cells", unitCount},
	{"core.save_s", unitS},
	{"core.snapshot_bytes", unitBytes},
	{"core.load_s", unitS},
	{"core.lazy_open_s", unitS},
	{"core.lazy_hit_ratio", unitRatio},
	{"core.lazy_decodes_per_read", unitCount},
	{"core.lazy_evictions", unitCount},
	{"core.lazy_cached_mb", unitMiB},
	{"core.answer_materialized_us", unitUs},
	{"core.answer_computed_us", unitUs},
	{"core.answer_ancestor_us", unitUs},
	{"core.computed_share", unitRatio},
	{"core.answer_refused", unitCount},
	{"core.materialize_s", unitS},
	{"incr.apply_delta_s", unitS},
	{"incr.cells_touched", unitCount},
	{"incr.cells_admitted", unitCount},
	{"incr.copy_per_touched", unitRatio},
	{"ingest.wal_append_s", unitS},
	{"ingest.wal_sync_s", unitS},
	{"ingest.wal_bytes_per_record", unitBytes},
	{"ingest.group_p50", unitCount},
	{"ingest.replay_s_per_entry", unitS},
	{"server.cell_p50_ms", unitMs},
	{"server.query_p50_ms", unitMs},
	{"server.summary_p50_ms", unitMs},
	{"server.cache_hit_ratio", unitRatio},
	{"server.http_overhead_ms", unitMs},
	{"cluster.shard_calls_per_read", unitCount},
	{"cluster.shard_p50_ms", unitMs},
	{"cluster.router_self_ms", unitMs},
	{"cluster.shard_errors", unitCount},
	{"trace.overhead_ratio", unitRatio},
	{"trace.spans", unitCount},
}

// workloads maps --workload names to the functions that run them.
var workloads = map[string]func(r *run) error{
	"build":  runBuild,
	"query":  runQuery,
	"ingest": runIngest,
	"fanout": runFanout,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line: the run's machine-readable outcome.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "build | query | ingest | fanout")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown from a traced run")
	smoke := fs.Bool("smoke", false, "tiny inputs (tests)")
	work := fs.String("work", ".bench_work", "scratch directory for generated inputs")
	out := fs.String("out", ".bench_out", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	drive, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want build, query, ingest or fanout)", *workload)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	res, meta, err := execute(*workload, drive, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, sz, *work, *out)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"meta": meta}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// execute runs one workload. An untraced run measures once; a traced run
// measures untraced, then again traced, and reports per-layer metrics plus
// the relative change of the workload's headline metric between the two.
func execute(name string, drive func(*run) error, seed int64, window time.Duration, traced bool, sz sizes, workRoot, outRoot string) (result, map[string]any, error) {
	dir, err := newWorkDir(workRoot, fmt.Sprintf("%s-%d", name, seed))
	if err != nil {
		return result{}, nil, err
	}
	defer func() { _ = os.RemoveAll(dir) }() // scratch inputs; nothing to keep

	base := &run{workload: name, seed: seed, window: window, sz: sz, dir: dir, e2e: map[string]float64{}}
	if err := drivePhases(base, drive); err != nil {
		return result{}, nil, err
	}
	if probe, ok := companionReads[name]; ok && !traced {
		// Everything the workload built is garbage by now, so the probe
		// does not pay for its heap.
		if err := companion(base, probe); err != nil {
			return result{}, nil, err
		}
	}
	base.s.report(base.e2e)
	res := result{Attempted: base.attempted.Load(), Failed: base.failed.Load(), Metrics: map[string]metricValue{}}
	meta := base.metadata()
	if !traced {
		for _, m := range endToEnd {
			v, ok := base.e2e[m.name]
			if !ok {
				return result{}, nil, fmt.Errorf("workload %s did not measure %s", name, m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	} else {
		tr := newTracer()
		tracedDir, err := newWorkDir(dir, "traced")
		if err != nil {
			return result{}, nil, err
		}
		tracedRun := &run{workload: name, seed: seed, window: window, sz: sz, dir: tracedDir, e2e: map[string]float64{},
			layer: map[string]float64{}, tr: tr}
		if err := drivePhases(tracedRun, drive); err != nil {
			return result{}, nil, err
		}
		tracedRun.s.report(tracedRun.e2e)
		res.Attempted += tracedRun.attempted.Load()
		res.Failed += tracedRun.failed.Load()
		head := headline[name]
		if before := base.e2e[head]; before > 0 {
			tracedRun.layer["trace.overhead_ratio"] = tracedRun.e2e[head]/before - 1
		}
		tracedRun.layer["trace.spans"] = float64(tr.len())
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{tracedRun.layer[m.name], m.unit}
		}
		path, err := tr.write(outRoot, fmt.Sprintf("%s-%d", name, seed))
		if err != nil {
			return result{}, nil, err
		}
		meta["trace_file"] = path
		meta["trace_self_ms"] = tr.selfTimes()
		meta["headline"] = map[string]float64{"untraced": base.e2e[head], "traced": tracedRun.e2e[head]}
	}
	res.Correct = res.Failed == 0
	return res, meta, nil
}

// drivePhases runs the workload once per phase, each on its own dataset.
func drivePhases(r *run, drive func(*run) error) error {
	for r.phase = 0; r.phase < r.sz.Phases; r.phase++ {
		if err := drive(r); err != nil {
			return fmt.Errorf("phase %d: %w", r.phase, err)
		}
	}
	return nil
}

// companionReads lists the workloads whose own path lacks the append
// metrics (and, when true, the read metrics too); the companion probe
// measures those on untraced runs.
var companionReads = map[string]bool{
	"build":  true,
	"query":  false,
	"fanout": false,
}

// headline is the end-to-end metric the tracing overhead is reported on.
var headline = map[string]string{
	"build":  "build_s",
	"query":  "read_p50_ms",
	"ingest": "append_p50_ms",
	"fanout": "read_p50_ms",
}

// sortedKeys returns m's keys in order (deterministic dumps).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
