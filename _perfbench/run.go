package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// sizes are the generated input shapes. fullSizes is what the benchmark
// measures; smokeSizes keeps the package tests fast.
type sizes struct {
	// Paths, Dims and MinSupport shape the build, query and fanout dataset.
	Paths      int
	Dims       int
	MinSupport float64
	// DropShare is the seeded share of cuboids query and fanout drop
	// before saving, so some answers are computed or come from an ancestor.
	DropShare float64
	// BuildReps is the least number of times query, ingest and fanout
	// build each phase's snapshot; build_s is the median of all builds.
	BuildReps int
	// Ingest dataset: IngestBase records are built into the served
	// snapshot, the rest feed BatchRecords-record append batches, the
	// first Journaled of which are pre-journaled for setup to replay.
	IngestPaths, IngestBase, IngestDims int
	IngestMinSupport                    float64
	BatchRecords, Journaled             int
	// Probe shapes the small companion deployment that measures the read
	// and append metrics on workloads whose own path has none; appends and
	// reads count per phase.
	ProbePaths, ProbeBase, ProbeDims, ProbeBatch int
	ProbeAppends, ProbeReads                     int
	// SetupReps is the least number of times setup runs per phase; cheap
	// setups repeat up to setupMaxReps times or setupBudget. setup_s is
	// the median of every phase's samples.
	SetupReps int
	// Samples is the number of cells the correctness checks compare.
	Samples int
	// Requests is the length of the seeded read request list; Warm of
	// them form the warm-up pass every topology runs before timing.
	Requests, Warm int
	// ReplayOps bounds the in-process layer replays of a traced run.
	ReplayOps int
	// LazyBudget is the decoded-section LRU budget of lazy opens.
	LazyBudget int64
	// Phases is how many independently generated datasets one run
	// measures in turn, each for an equal share of the window; every
	// metric pools the samples of all of them, so one seed's data does not
	// decide the run's numbers.
	Phases int
}

var fullSizes = sizes{
	Paths: 2000, Dims: 5, MinSupport: 0.03, DropShare: 0.25, BuildReps: 3,
	IngestPaths: 2400, IngestBase: 1000, IngestDims: 3, IngestMinSupport: 0.05,
	BatchRecords: 10, Journaled: 3,
	ProbePaths: 800, ProbeBase: 600, ProbeDims: 2, ProbeBatch: 2, ProbeAppends: 34, ProbeReads: 2000,
	SetupReps: 3, Samples: 32, Requests: 10000, Warm: 400, ReplayOps: 400,
	LazyBudget: 16 << 20, Phases: 3,
}

var smokeSizes = sizes{
	Paths: 200, Dims: 3, MinSupport: 0.05, DropShare: 0.25, BuildReps: 1,
	IngestPaths: 300, IngestBase: 150, IngestDims: 2, IngestMinSupport: 0.05,
	BatchRecords: 5, Journaled: 2,
	ProbePaths: 200, ProbeBase: 100, ProbeDims: 2, ProbeBatch: 2, ProbeAppends: 5, ProbeReads: 50,
	SetupReps: 2, Samples: 8, Requests: 500, Warm: 50, ReplayOps: 50,
	LazyBudget: 1 << 20, Phases: 1,
}

// run is one measurement of one workload: its inputs, its op counters, and
// the samples and metrics it produced. tr is nil on untraced runs.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	sz       sizes
	dir      string
	tr       *tracer
	phase    int

	attempted, failed atomic.Int64
	s                 samples
	e2e               map[string]float64
	layer             map[string]float64
	inputs            []map[string]any
}

// samples pools one run's end-to-end measurements across its phases.
type samples struct {
	setup, build, ratio, heap []float64
	reads                     readStats
	appendMs                  []float64
	appends                   int
	appendWall                time.Duration
}

// report turns the pooled samples into end-to-end metrics; a metric with
// no samples is left unset.
func (s *samples) report(e2e map[string]float64) {
	for name, xs := range map[string][]float64{
		"setup_s": s.setup, "build_s": s.build, "snapshot_bytes_ratio": s.ratio, "heap_mb": s.heap,
	} {
		if len(xs) > 0 {
			e2e[name] = median(xs)
		}
	}
	if len(s.reads.lat) > 0 {
		e2e["read_rps"] = float64(s.reads.ok) / s.reads.wall.Seconds()
		e2e["read_p50_ms"] = median(s.reads.lat)
		e2e["read_p99_ms"] = quantile(s.reads.lat, 0.99)
	}
	if len(s.appendMs) > 0 {
		e2e["append_rps"] = float64(s.appends) / s.appendWall.Seconds()
		e2e["append_p50_ms"] = median(s.appendMs)
		e2e["append_p90_ms"] = quantile(s.appendMs, 0.9)
	}
}

// phaseSeed is the generator seed of the current phase's dataset.
func (r *run) phaseSeed() int64 { return r.seed*1_000_003 + int64(r.phase) }

// phaseWindow is the current phase's share of the measured window.
func (r *run) phaseWindow() time.Duration { return r.window / time.Duration(r.sz.Phases) }

// op counts one attempted operation and whether it failed.
func (r *run) op(ok bool) {
	r.attempted.Add(1)
	if !ok {
		r.failed.Add(1)
	}
}

// fail records a failed correctness check, with its reason on stderr.
func (r *run) fail(format string, args ...any) {
	r.op(false)
	fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.workload, fmt.Sprintf(format, args...))
}

// check counts one correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if ok {
		r.op(true)
		return
	}
	r.fail(format, args...)
}

// input records one input size of the current phase.
func (r *run) input(key string, v any) {
	for len(r.inputs) <= r.phase {
		r.inputs = append(r.inputs, map[string]any{})
	}
	r.inputs[r.phase][key] = v
}

// setLayer records a per-layer metric on traced runs.
func (r *run) setLayer(name string, v float64) {
	if r.layer != nil {
		r.layer[name] = v
	}
}

func (r *run) path(name string) string {
	return filepath.Join(r.dir, fmt.Sprintf("p%d-%s", r.phase, name))
}

// metadata describes the run: code, toolchain, machine and input sizes.
func (r *run) metadata() map[string]any {
	host, _ := os.Hostname() // empty on failure is an acceptable label
	return map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"seconds":       r.window.Seconds(),
		"commit":        commit(),
		"source_sha256": sourceDigest(),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"host":          host,
		"inputs":        r.inputs,
	}
}

// commit is the checked-out git revision, or "unknown" outside a git
// work tree (source_sha256 identifies the code there).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go, go.mod and go.sum file of the module tree
// the benchmark was built from, so results identify the code under test
// even where no git metadata exists.
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("_perfbench"); err == nil {
			root = "."
		}
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && strings.HasPrefix(n, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		_, _ = h.Write(b) // hash.Hash.Write never returns an error
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newWorkDir creates a fresh scratch directory under root.
func newWorkDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix+"-")
}

// heapMiB is the live heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// writeSynced writes fn's output to path and fsyncs it.
func writeSynced(path string, fn func(w io.Writer) error) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := fn(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return 0, err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // the stat error is the one worth reporting
		return 0, err
	}
	return st.Size(), f.Close()
}

// copyFile copies src to dst.
func copyFile(dst, src string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

// seconds converts a duration for reporting.
func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by nearest rank; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Cheap set-ups repeat beyond SetupReps, within these limits, so their
// median rests on more samples.
const (
	setupMaxReps = 50
	setupBudget  = 500 * time.Millisecond
)

// repeatTimed runs fn at least n times, then again while the runs so far
// took under budget and fewer than limit ran, and returns each run's wall
// time in seconds. Each run starts from a collected heap, so garbage of
// the run before is not billed to it. fn's error aborts the repetition.
func repeatTimed(n, limit int, budget time.Duration, fn func(i int) error) ([]float64, error) {
	var ds []float64
	start := time.Now()
	for i := 0; i < n || (i < limit && time.Since(start) < budget); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		ds = append(ds, seconds(time.Since(t0)))
	}
	return ds, nil
}
