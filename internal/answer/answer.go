// Package answer carries certain answers from the evaluator to the
// response body without a map per answer. A Batch is a flat row-major
// []sym.ID, one column per distinct free variable in sorted-name order,
// resolved through the symbol table of the view the IDs came from; Rows
// is the same shape over strings, for the cluster wire, where every
// node interns into its own table.
//
// Every answer list leaves the engine in one order, the canonical
// binding-key order: the order of query.Valuation.Key strings
// ("x=a,y=b" with the variables sorted). Column IDs follow interning
// order, not string order, so a batch is sorted by resolving its IDs;
// the comparison never builds the key strings except to break the rare
// tie a constant containing ',' creates. Sorted parts over disjoint
// answer sets merge in one k-way pass.
package answer

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"cqa/internal/query"
	"cqa/internal/sym"
)

// Batch is a set of answers as interned rows.
type Batch struct {
	// Vars names the columns: the distinct free variables, sorted.
	Vars []string
	// IDs holds the rows back to back, len(Vars) IDs per row.
	IDs []sym.ID
	// Syms resolves the IDs: the symbol table of the columnar view
	// the rows were read from (or the table they were interned into).
	Syms *sym.Table
}

// Rows is a set of answers as string rows, laid out like a Batch.
type Rows struct {
	Vars []string
	Vals []string
}

// Columns returns the column names of an answer set over the given
// free variables: each variable once, sorted — the key order of the
// variables in Valuation.Key and of the fields of a JSON object.
func Columns(free []query.Var) []string {
	out := make([]string, 0, len(free))
	for _, v := range free {
		out = append(out, string(v))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Len is the number of rows.
func (b Batch) Len() int { return rowCount(len(b.IDs), len(b.Vars)) }

// Len is the number of rows.
func (r Rows) Len() int { return rowCount(len(r.Vals), len(r.Vars)) }

func rowCount(n, w int) int {
	if w == 0 {
		return 0
	}
	return n / w
}

// FromValuations interns answer bindings into syms as a batch with the
// given columns, sorted into binding-key order. Every valuation must
// bind every column.
func FromValuations(vars []string, vals []query.Valuation, syms *sym.Table) Batch {
	ids := make([]sym.ID, 0, len(vals)*len(vars))
	for _, v := range vals {
		for _, x := range vars {
			ids = append(ids, syms.Intern(string(v[query.Var(x)])))
		}
	}
	b := Batch{Vars: vars, IDs: ids, Syms: syms}
	b.Sort()
	return b
}

// Rows resolves the batch to strings. The strings are the table's own;
// only the row slice is allocated.
func (b Batch) Rows() Rows {
	strs := b.Syms.Symbols()
	vals := make([]string, len(b.IDs))
	for i, id := range b.IDs {
		vals[i] = strs[id]
	}
	return Rows{Vars: b.Vars, Vals: vals}
}

// Valuations converts the rows to bindings, for the Go API that
// returns []query.Valuation. Nil when there are no rows.
func (r Rows) Valuations() []query.Valuation {
	n := r.Len()
	if n == 0 {
		return nil
	}
	out := make([]query.Valuation, n)
	w := len(r.Vars)
	for i := range out {
		v := make(query.Valuation, w)
		for j, x := range r.Vars {
			v[query.Var(x)] = query.Const(r.Vals[i*w+j])
		}
		out[i] = v
	}
	return out
}

// Sort puts the rows into binding-key order, in place. Rows sort on
// an abbreviated key first: eight bytes of the first column's constant
// (past the prefix every row shares), packed big-endian into a word, so
// most comparisons compare one word instead of resolving strings; only
// rows whose words tie run the exact comparison.
func (b Batch) Sort() {
	n, w := b.Len(), len(b.Vars)
	if n < 2 {
		return
	}
	strs := b.Syms.Symbols()
	first := strs[b.IDs[0]]
	shared, abbreviate := len(first), true
	for i := 0; i < n; i++ {
		s := strs[b.IDs[i*w]]
		shared = commonPrefix(first[:shared], s)
		// A ',' inside a non-last column can tie with the key's own
		// separator, which one word cannot order: compare exactly.
		if w > 1 && strings.IndexByte(s, ',') >= 0 {
			abbreviate = false
		}
	}
	keys := make([]sortKey, n)
	for i := range keys {
		keys[i].row = int32(i)
		if abbreviate {
			keys[i].abbr = abbreviation(strs[b.IDs[i*w]][shared:], w > 1)
		}
	}
	row := func(i int32) []sym.ID { return b.IDs[int(i)*w : int(i+1)*w] }
	slices.SortFunc(keys, func(x, y sortKey) int {
		if x.abbr != y.abbr {
			return cmp.Compare(x.abbr, y.abbr)
		}
		return compareIDRows(b.Vars, strs, row(x.row), row(y.row))
	})
	sorted := make([]sym.ID, 0, len(b.IDs))
	for _, k := range keys {
		sorted = append(sorted, row(k.row)...)
	}
	copy(b.IDs, sorted)
}

// sortKey is a row number under its abbreviated key.
type sortKey struct {
	abbr uint64
	row  int32
}

// abbreviation packs the first eight bytes of s — followed by the key's
// ',' separator when the column is not the last — big-endian into a
// word, zero-padded. Zero padding sorts a proper prefix first, and a
// comma-free column never makes one key a prefix of another through
// the separator, so unequal words order their rows exactly as the keys
// do; equal words decide nothing.
func abbreviation(s string, comma bool) uint64 {
	var a uint64
	for i := 0; i < 8; i++ {
		a <<= 8
		switch {
		case i < len(s):
			a |= uint64(s[i])
		case i == len(s) && comma:
			a |= ','
		}
	}
	return a
}

// commonPrefix is the length of the longest common prefix of a and b.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// MergeBatches merges parts that are each in binding-key order and
// hold disjoint answers into one batch in that order. Every part must
// have the given columns and resolve through the same table (the
// shards of one snapshot share its view).
func MergeBatches(vars []string, syms *sym.Table, parts []Batch) (Batch, error) {
	ids := make([][]sym.ID, len(parts))
	for i, p := range parts {
		if len(p.IDs) == 0 {
			continue
		}
		if p.Syms != syms || !slices.Equal(p.Vars, vars) {
			return Batch{}, fmt.Errorf("answer: part %d has columns %v over another table, want %v", i, p.Vars, vars)
		}
		ids[i] = p.IDs
	}
	strs := syms.Symbols()
	out := mergeRows(len(vars), ids, func(x, y []sym.ID) int { return compareIDRows(vars, strs, x, y) })
	return Batch{Vars: vars, IDs: out, Syms: syms}, nil
}

// MergeRows is MergeBatches for string rows, whose parts may come from
// nodes with different symbol tables. A part with no rows may have no
// columns (an empty answer list carries none on the wire).
func MergeRows(vars []string, parts []Rows) (Rows, error) {
	vals := make([][]string, len(parts))
	for i, p := range parts {
		if len(p.Vals) == 0 {
			continue
		}
		if !slices.Equal(p.Vars, vars) || len(p.Vals)%len(vars) != 0 {
			return Rows{}, fmt.Errorf("answer: part %d has columns %v and %d values, want columns %v", i, p.Vars, len(p.Vals), vars)
		}
		vals[i] = p.Vals
	}
	out := mergeRows(len(vars), vals, func(x, y []string) int { return compareRows(vars, x, y) })
	return Rows{Vars: vars, Vals: out}, nil
}

// compareIDRows compares two rows of one table in binding-key order.
// Equal IDs are equal constants, so only differing columns resolve.
func compareIDRows(vars, strs []string, x, y []sym.ID) int {
	for j := range x {
		if x[j] == y[j] {
			continue
		}
		if c, ok := compareColumn(strs[x[j]], strs[y[j]], j == len(x)-1); ok {
			return c
		}
		rx, ry := make([]string, len(x)), make([]string, len(y))
		for k := range x {
			rx[k], ry[k] = strs[x[k]], strs[y[k]]
		}
		return compareKeys(vars, rx, ry)
	}
	return 0
}

// compareRows compares two string rows in binding-key order.
func compareRows(vars, x, y []string) int {
	for j := range x {
		if x[j] == y[j] {
			continue
		}
		if c, ok := compareColumn(x[j], y[j], j == len(x)-1); ok {
			return c
		}
		return compareKeys(vars, x, y)
	}
	return 0
}

// compareColumn compares two different constants of one column the way
// their key strings compare. In the key every constant but the last is
// followed by ",", so a proper prefix compares as if it ended in ','.
// ok is false when that comma ties with a ',' of the longer constant:
// then the key comparison runs on into the next variable's name and
// the caller must compare whole keys.
func compareColumn(a, b string, last bool) (c int, ok bool) {
	if last {
		return strings.Compare(a, b), true
	}
	switch {
	case len(a) < len(b) && b[:len(a)] == a:
		return compareByte(',', b[len(a)])
	case len(b) < len(a) && a[:len(b)] == b:
		c, ok = compareByte(',', a[len(b)])
		return -c, ok
	}
	return strings.Compare(a, b), true
}

func compareByte(a, b byte) (int, bool) {
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	}
	return 0, false
}

// compareKeys compares the key strings of two rows.
func compareKeys(vars, x, y []string) int {
	return strings.Compare(rowKey(vars, x), rowKey(vars, y))
}

// rowKey is the Valuation.Key string of a row.
func rowKey(vars, row []string) string {
	var b strings.Builder
	for j, x := range vars {
		if j > 0 {
			b.WriteByte(',')
		}
		b.WriteString(x)
		b.WriteByte('=')
		b.WriteString(row[j])
	}
	return b.String()
}

// mergeRows k-way merges sorted parts of width-w rows through a binary
// heap of part cursors: one comparison per heap level per row.
func mergeRows[E any](w int, parts [][]E, cmp func(x, y []E) int) []E {
	total := 0
	var heap [][]E // the unconsumed rest of each non-empty part
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			heap = append(heap, p)
		}
	}
	if len(heap) == 1 {
		return heap[0]
	}
	less := func(i, j int) bool { return cmp(heap[i][:w], heap[j][:w]) < 0 }
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && less(l, m) {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && less(r, m) {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]E, 0, total)
	for len(heap) > 0 {
		out = append(out, heap[0][:w]...)
		if heap[0] = heap[0][w:]; len(heap[0]) == 0 {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return out
}
