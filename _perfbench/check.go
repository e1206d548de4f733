package main

// Correctness checks. Each returns an error instead of panicking, so a
// wrong answer is counted as a failed op and the run keeps its numbers.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/server"
)

// refs are the full build's answers, taken before any cuboid is dropped.
type refs struct {
	// digests holds CellDigest of every cell, by cellRef.
	digests map[string][sha256.Size]byte
	// graphs holds, per sampled target, the compact JSON of the graph the
	// full build answers it with.
	graphs map[int][]byte
	sample []int
}

func cellRef(spec core.CuboidSpec, values []hierarchy.NodeID) string {
	return spec.Key() + "|" + core.CellKey(values)
}

func buildRefs(full *core.Cube, ts []target, sample []int) (*refs, error) {
	out := &refs{digests: map[string][sha256.Size]byte{}, graphs: map[int][]byte{}, sample: sample}
	for _, cb := range full.Cuboids {
		for _, cell := range cb.Cells {
			out.digests[cellRef(cb.Spec, cell.Values)] = core.CellDigest(cell)
		}
	}
	for _, i := range sample {
		a, err := full.Answer(context.Background(), core.Query{Op: core.OpCell, Spec: ts[i].spec, Values: ts[i].values})
		if err != nil {
			return nil, fmt.Errorf("reference answer for %s: %w", ts[i].cell, err)
		}
		g, err := json.Marshal(server.RenderCellAnswer(full, a.Cells[0]).Graph)
		if err != nil {
			return nil, err
		}
		out.graphs[i] = g
	}
	return out, nil
}

// digestCheck answers t in process and compares the answering cell's
// digest with the full build's: the target itself when the answer is exact
// (materialized or computed), the ancestor that answered otherwise.
func digestCheck(cube *core.Cube, t target, refs *refs) error {
	a, err := cube.Answer(context.Background(), core.Query{Op: core.OpCell, Spec: t.spec, Values: t.values})
	if err != nil {
		return err
	}
	ca := a.Cells[0]
	key := cellRef(ca.SourceSpec, ca.Source.Values)
	if ca.Exact {
		key = cellRef(t.spec, t.values)
	}
	want, ok := refs.digests[key]
	if !ok {
		return fmt.Errorf("%s answered from %s, which the full build lacks", t.cell, key)
	}
	return sameDigest(core.CellDigest(ca.Source), want)
}

func sameDigest(got, want [sha256.Size]byte) error {
	if got != want {
		return fmt.Errorf("digest %x, want %x", got[:8], want[:8])
	}
	return nil
}

// graphCheck compares the graph of an exact /v1/cell or /v2/query op=cell
// answer with the full build's. Inexact (ancestor) answers are covered by
// digestCheck.
func graphCheck(rep reply, kind string, want []byte) error {
	if rep.status != http.StatusOK {
		return fmt.Errorf("status %d", rep.status)
	}
	type cell struct {
		Exact bool            `json:"exact"`
		Graph json.RawMessage `json:"graph"`
	}
	var got cell
	if kind == kindCell {
		if err := json.Unmarshal(rep.body, &got); err != nil {
			return err
		}
	} else {
		var q struct{ Cells []cell }
		if err := json.Unmarshal(rep.body, &q); err != nil {
			return err
		}
		if len(q.Cells) != 1 {
			return fmt.Errorf("%d cells, want 1", len(q.Cells))
		}
		got = q.Cells[0]
	}
	if !got.Exact {
		return nil
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got.Graph); err != nil {
		return err
	}
	if !bytes.Equal(compact.Bytes(), want) {
		return fmt.Errorf("graph differs from the full build's (%d vs %d bytes)", compact.Len(), len(want))
	}
	return nil
}

// sameBody requires two successful responses with identical bodies.
func sameBody(got, want reply) error {
	if got.status != http.StatusOK || want.status != http.StatusOK {
		return fmt.Errorf("status %d vs %d", got.status, want.status)
	}
	if !bytes.Equal(got.body, want.body) {
		return fmt.Errorf("bodies differ (%d vs %d bytes)", len(got.body), len(want.body))
	}
	return nil
}

// sameBytes compares two snapshot encodings.
func sameBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("snapshot bytes differ (%d vs %d bytes, sha256 %x vs %x)",
			len(got), len(want), sha256.Sum256(got), sha256.Sum256(want))
	}
	return nil
}
