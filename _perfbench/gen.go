package main

// Input generation. Everything the program receives is derived from the
// workload seed: the .fdb path database text, the snapshots built from
// it, the append batches, and the read request list.

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// dataset generates paths records over dims dimensions: the generator's
// default shape, except for a wider pool of shorter location sequences.
// With the default 50 sequences of up to 8 stages, the frequent-pattern
// count swings several-fold between seeds (38k to 228k mining candidates
// over seeds 11-16 at 2,000 paths, d=5, δ=3%) and build time with it;
// 200 sequences of at most 6 stages keep seeds comparable.
func dataset(seed int64, paths, dims int) (*datagen.Dataset, error) {
	cfg := datagen.Default()
	cfg.Seed = seed
	cfg.NumPaths = paths
	cfg.NumDims = dims
	cfg.NumSequences = 200
	cfg.SeqLenMax = 6
	return datagen.Generate(cfg)
}

// writeFDB writes the dataset as .fdb text and returns its size.
func writeFDB(path string, ds *datagen.Dataset) (int64, error) {
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		return 0, err
	}
	return int64(buf.Len()), os.WriteFile(path, buf.Bytes(), 0o644)
}

// readFDB parses an .fdb file, the way flowquery and flowserve do.
func readFDB(path string) (*datagen.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only
	return datagen.Read(f)
}

// coreConfig is the build configuration every workload uses: Shared
// mining, no exceptions, all cores.
func coreConfig(ds *datagen.Dataset, minSupport float64, ledger bool) core.Config {
	return core.Config{
		MinSupport:  minSupport,
		Plan:        ds.DefaultPlan(),
		DeltaLedger: ledger,
		Workers:     runtime.GOMAXPROCS(0),
	}
}

// batchBody renders records as an /admin/append body.
func batchBody(schema *pathdb.Schema, recs []pathdb.Record) ([]byte, error) {
	var buf bytes.Buffer
	db := &pathdb.DB{Schema: schema, Records: recs}
	if _, err := db.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// batches cuts pool into n batches of size records each, cycling over the
// pool when n*size exceeds it (a duplicate record is an ordinary append).
func batches(pool []pathdb.Record, n, size int) [][]pathdb.Record {
	out := make([][]pathdb.Record, n)
	for i := range out {
		b := make([]pathdb.Record, size)
		for j := range b {
			b[j] = pool[(i*size+j)%len(pool)]
		}
		out[i] = b
	}
	return out
}

// target is one materialized cell of the full build: a read target.
type target struct {
	spec   core.CuboidSpec
	values []hierarchy.NodeID
	cell   string // FormatCell rendering
	count  int64  // paths in the cell
}

// targets lists every cell of the cube in a deterministic order.
func targets(cube *core.Cube) []target {
	var out []target
	for _, s := range cube.CuboidSummaries() {
		cb := cube.Cuboids[s.Key]
		if cb == nil {
			continue
		}
		for _, cell := range cb.SortedCells() {
			out = append(out, target{
				spec:   cb.Spec,
				values: append([]hierarchy.NodeID(nil), cell.Values...),
				cell:   core.FormatCell(cube.Schema, cell.Values),
				count:  cell.Count,
			})
		}
	}
	return out
}

// Request kinds of the read mix.
const (
	kindCell      = "cell"      // GET /v1/cell
	kindQueryCell = "qcell"     // GET /v2/query op=cell
	kindRollup    = "rollup"    // GET /v2/query op=rollup
	kindDrill     = "drilldown" // GET /v2/query op=drilldown
	kindSummary   = "summary"   // GET /v1/summary
)

// request is one read of the mix. t indexes the target list (-1 for the
// census endpoints).
type request struct {
	kind string
	path string
	t    int
	dim  int
}

// readMix is the request mix in per mille: cell reads dominate, census
// reads are rare. /v1/exceptions is left out: on a lazy snapshot it decodes
// every section and flushes the LRU, and at any share small enough not to
// dominate throughput its few occurrences per run decide the p99.
var readMix = []struct {
	kind     string
	perMille int
}{
	{kindCell, 550},
	{kindQueryCell, 250},
	{kindRollup, 80},
	{kindDrill, 70},
	{kindSummary, 50},
}

// Zipf skew of cell popularity: over ~2,000 cells the top 10 draw ~43% of
// reads and the top 100 ~75%; the response cache (1,024 entries, keyed per
// request) answers ~64% of the query workload's reads. A sharper head
// would make the read latencies hinge on the handful of hottest cells, and
// so on the seed that picked them; this one spreads the misses over enough
// cells that each run measures the cube's typical answer.
const (
	zipfS = 1.2
	zipfV = 2
)

// requests draws n reads: cells Zipf-skewed over a seeded shuffle of the
// targets, kinds by readMix. Roll-ups and drill-downs pick a dimension the
// target can move along and fall back to a cell read when it has none.
// routed lists are sent through cluster.Router, which answers drill-downs
// 501 by design (no cross-shard cell enumeration); they ask op=cell
// instead.
func requests(seed int64, cube *core.Cube, ts []target, n int, routed bool) []request {
	rng := rand.New(rand.NewSource(seed))
	order := popularity(rng, ts)
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(ts)-1))
	dimLevels := cube.Symbols.DimLevels()
	out := make([]request, n)
	for i := range out {
		p := rng.Intn(1000)
		kind := readMix[len(readMix)-1].kind
		for _, m := range readMix {
			if p < m.perMille {
				kind = m.kind
				break
			}
			p -= m.perMille
		}
		if routed && kind == kindDrill {
			kind = kindQueryCell
		}
		t := order[zipf.Uint64()]
		req := request{kind: kind, t: t, dim: -1}
		switch kind {
		case kindRollup, kindDrill:
			var dims []int
			for d, l := range ts[t].spec.Item {
				if (kind == kindRollup && l > 0) || (kind == kindDrill && l < maxLevel(dimLevels[d])) {
					dims = append(dims, d)
				}
			}
			if len(dims) == 0 {
				req.kind = kindQueryCell
			} else {
				req.dim = dims[rng.Intn(len(dims))]
			}
		case kindSummary:
			req.t = -1
		}
		req.path = requestPath(cube, ts, req)
		out[i] = req
	}
	return out
}

// strata is the number of cell-size classes popularity ranks cycle through.
const strata = 10

// popularity orders the targets by Zipf rank. A plain shuffle would let the
// seed decide whether the few hottest cells are huge coarse cells or tiny
// fine ones, and read latency with it; instead the targets are split into
// strata of equal size by path count, each stratum is shuffled, and ranks
// take one cell from each stratum in turn, so every seed's hot set has the
// same mix of cell sizes.
func popularity(rng *rand.Rand, ts []target) []int {
	bySize := make([]int, len(ts))
	for i := range bySize {
		bySize[i] = i
	}
	sort.SliceStable(bySize, func(a, b int) bool { return ts[bySize[a]].count < ts[bySize[b]].count })
	classes := make([][]int, strata)
	for k, i := range bySize {
		c := k * strata / len(ts)
		classes[c] = append(classes[c], i)
	}
	for _, c := range classes {
		rng.Shuffle(len(c), func(a, b int) { c[a], c[b] = c[b], c[a] })
	}
	order := make([]int, 0, len(ts))
	for k := 0; len(order) < len(ts); k++ {
		for _, c := range classes {
			if k < len(c) {
				order = append(order, c[k])
			}
		}
	}
	return order
}

func maxLevel(levels []int) int {
	m := 0
	for _, l := range levels {
		m = max(m, l)
	}
	return m
}

// requestPath renders the request's URL path and query.
func requestPath(cube *core.Cube, ts []target, req request) string {
	switch req.kind {
	case kindSummary:
		return "/v1/summary"
	}
	t := ts[req.t]
	q := url.Values{}
	q.Set("cell", t.cell)
	q.Set("pathlevel", strconv.Itoa(t.spec.PathLevel))
	switch req.kind {
	case kindCell:
		return "/v1/cell?" + q.Encode()
	case kindQueryCell:
		q.Set("op", "cell")
	case kindRollup, kindDrill:
		q.Set("op", req.kind)
		q.Set("dim", cube.Schema.Dims[req.dim].Dimension())
		q.Set("max", "16")
	default:
		panic(fmt.Sprintf("perfbench: unknown request kind %q", req.kind))
	}
	return "/v2/query?" + q.Encode()
}

// sample picks n distinct target indices, seeded.
func sample(seed int64, nTargets, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	perm := rng.Perm(nTargets)
	return perm[:min(n, nTargets)]
}

// dropCuboids removes a seeded share of the cube's cuboids (never the
// apex cuboids, so every cell keeps an ancestor to fall back to) and
// returns how many it dropped.
func dropCuboids(seed int64, cube *core.Cube, share float64) int {
	rng := rand.New(rand.NewSource(seed ^ 0xd409))
	dropped := 0
	for _, s := range cube.CuboidSummaries() {
		spec, err := core.ParseCuboidKey(s.Key)
		if err != nil || isApex(spec) {
			continue
		}
		if rng.Float64() < share && cube.DropCuboid(spec) != nil {
			dropped++
		}
	}
	return dropped
}

func isApex(spec core.CuboidSpec) bool {
	for _, l := range spec.Item {
		if l != 0 {
			return false
		}
	}
	return true
}
