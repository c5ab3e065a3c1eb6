package main

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/strdist"
	"repro/internal/triples"
)

// model is the benchmark's own copy of the live tuples. Inserts and deletes
// keep it current, and every similarity answer the engine gives is checked
// against a brute-force strdist.WithinDistance scan over it. Entries are
// bucketed by value length so the scan skips values the length bound rules
// out.
type model struct {
	byLen map[int][]entry
	at    map[string]int // oid -> index in its length bucket
	val   map[string]string
	// memo holds answers computed since the last write; skewed needle
	// streams repeat questions often.
	memo map[question]fingerprint
}

type question struct {
	needle string
	d      int
}

type entry struct{ oid, val string }

func newModel(ts []triples.Tuple) *model {
	m := &model{byLen: make(map[int][]entry), at: make(map[string]int), val: make(map[string]string),
		memo: make(map[question]fingerprint)}
	for _, tu := range ts {
		m.insert(tu.OID, tu.Fields[0].Val.Str)
	}
	return m
}

func (m *model) insert(oid, val string) {
	clear(m.memo)
	b := m.byLen[len(val)]
	m.at[oid] = len(b)
	m.val[oid] = val
	m.byLen[len(val)] = append(b, entry{oid, val})
}

func (m *model) remove(oid string) bool {
	val, ok := m.val[oid]
	if !ok {
		return false
	}
	clear(m.memo)
	b := m.byLen[len(val)]
	i := m.at[oid]
	last := b[len(b)-1]
	b[i] = last
	m.at[last.oid] = i
	m.byLen[len(val)] = b[:len(b)-1]
	delete(m.at, oid)
	delete(m.val, oid)
	return true
}

// answer is the exact answer to dist(value, needle) <= d.
func (m *model) answer(needle string, d int) fingerprint {
	if f, ok := m.memo[question{needle, d}]; ok {
		return f
	}
	var f fingerprint
	for l := len(needle) - d; l <= len(needle)+d; l++ {
		for _, e := range m.byLen[l] {
			if strdist.WithinDistance(needle, e.val, d) {
				f.add(e.oid, e.val)
			}
		}
	}
	m.memo[question{needle, d}] = f
	return f
}

// fingerprint is an order-independent digest of a set of (oid, value)
// answers: two answer sets agree exactly when their fingerprints do, up to a
// 64-bit hash collision. Building one allocates nothing, so it can run next
// to the timed calls without disturbing the allocation counts.
type fingerprint struct {
	n        int
	sum, mix uint64
}

func (f *fingerprint) add(oid, val string) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(oid); i++ {
		h = (h ^ uint64(oid[i])) * 1099511628211
	}
	h = (h ^ 0xff) * 1099511628211
	for i := 0; i < len(val); i++ {
		h = (h ^ uint64(val[i])) * 1099511628211
	}
	f.n++
	f.sum += h
	f.mix ^= splitmix(h)
}

func (f fingerprint) String() string { return fmt.Sprintf("%d answers", f.n) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// resultFingerprint digests a `SELECT ?o, ?v` similarity result.
func resultFingerprint(res *plan.Result) fingerprint {
	var f fingerprint
	if res == nil {
		return f
	}
	for _, row := range res.Rows {
		f.add(row[0].Str, row[1].Str)
	}
	return f
}
