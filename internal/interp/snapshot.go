package interp

import (
	"fmt"
	"sort"

	"clustersmt/internal/snap"
)

// This file holds the checkpoint support for the functional front end:
// raw page-image encoding for Memory and architectural-state encoding
// for Thread. Field order must stay in lockstep between Encode and
// Decode pairs; the envelope version in internal/core guards layout
// changes.

// EncodeSnap writes the full page image, sorted by page number for a
// stable byte stream.
func (m *Memory) EncodeSnap(w *snap.Writer) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	pns := make([]int64, 0, len(m.pages))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	w.Int(len(pns))
	for _, pn := range pns {
		w.I64(pn)
		pg := m.pages[pn]
		for _, word := range pg {
			w.U64(word)
		}
	}
}

// DecodeSnap installs a page image produced by EncodeSnap into m, which
// must be freshly created (existing pages are not cleared).
func (m *Memory) DecodeSnap(r *snap.Reader) {
	n := r.Int()
	if n < 0 || n > r.Remaining() {
		r.Fail(fmt.Errorf("interp: corrupt page count %d: %w", n, snap.ErrTruncated))
		return
	}
	for i := 0; i < n; i++ {
		pn := r.I64()
		if r.Err() != nil {
			return
		}
		pg := new([pageWords]uint64)
		for j := range pg {
			pg[j] = r.U64()
		}
		if r.Err() != nil {
			return
		}
		m.pages[pn] = pg
	}
}

// EncodeArch writes the thread's architectural state: PC, register
// files, halt flag and retired-instruction count.
func (t *Thread) EncodeArch(w *snap.Writer) {
	w.I64(t.PC)
	for _, v := range t.Int {
		w.U64(v)
	}
	for _, v := range t.FP {
		w.F64(v)
	}
	w.Bool(t.Halted)
	w.U64(t.Retired)
}

// DecodeArch overlays architectural state produced by EncodeArch onto
// t. The PC is validated against the thread's program; everything else
// is opaque register content.
func (t *Thread) DecodeArch(r *snap.Reader) {
	pc := r.I64()
	for i := range t.Int {
		t.Int[i] = r.U64()
	}
	for i := range t.FP {
		t.FP[i] = r.F64()
	}
	t.Halted = r.Bool()
	t.Retired = r.U64()
	if r.Err() != nil {
		return
	}
	// A halted thread's PC legitimately rests one past the instruction
	// that halted it; a running thread's must address real code.
	limit := int64(len(t.Prog.Code))
	if !t.Halted {
		limit--
	}
	if pc < 0 || pc > limit {
		r.Fail(fmt.Errorf("interp: thread %d: restored PC %d out of range", t.ID, pc))
		return
	}
	t.PC = pc
}
