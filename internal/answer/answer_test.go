package answer

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cqa/internal/query"
	"cqa/internal/sym"
)

// alphabet mixes bytes below and above ',' (and ',' itself, '=' and a
// control byte), so random constants hit prefix pairs whose next byte
// sorts on either side of the key separator, and comma ties.
const alphabet = "a,b!=+\x00-zA"

func randomConst(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// randomValuations returns distinct bindings of vars.
func randomValuations(rng *rand.Rand, vars []string, n int, pool []string) []query.Valuation {
	seen := map[string]bool{}
	var out []query.Valuation
	for len(out) < n {
		v := query.Valuation{}
		for _, x := range vars {
			v[query.Var(x)] = query.Const(pool[rng.Intn(len(pool))])
		}
		if k := v.Key(); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

func keyOrder(vals []query.Valuation) []string {
	keys := make([]string, len(vals))
	for i, v := range vals {
		keys[i] = v.Key()
	}
	sort.Strings(keys)
	return keys
}

func keysOf(r Rows) []string {
	var keys []string
	for _, v := range r.Valuations() {
		keys = append(keys, v.Key())
	}
	return keys
}

var widths = [][]string{{"x"}, {"x", "y"}, {"a", "b", "c"}}

// TestSortMatchesKeyOrder: a sorted batch lists its rows in the order
// of their Valuation.Key strings, for one to three columns, with and
// without commas in the constants, interned in random order.
func TestSortMatchesKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		vars := widths[trial%len(widths)]
		pool := make([]string, 3+rng.Intn(12))
		for i := range pool {
			pool[i] = randomConst(rng)
			if trial%2 == 0 {
				pool[i] = strings.ReplaceAll(pool[i], ",", ".") // the abbreviated path
			}
		}
		slices.Sort(pool)
		pool = slices.Compact(pool)
		maxRows := 1
		for range vars {
			maxRows *= len(pool)
		}
		vals := randomValuations(rng, vars, 1+rng.Intn(min(maxRows, 40)), pool)
		// FromValuations sorts; shuffle first so the rows reach Sort
		// out of order whatever their interning order.
		b := FromValuations(vars, vals, sym.NewTable())
		rng.Shuffle(b.Len(), func(i, j int) {
			w := len(vars)
			for k := 0; k < w; k++ {
				b.IDs[i*w+k], b.IDs[j*w+k] = b.IDs[j*w+k], b.IDs[i*w+k]
			}
		})
		b.Sort()
		if got, want := keysOf(b.Rows()), keyOrder(vals); !slices.Equal(got, want) {
			t.Fatalf("trial %d: sorted %q\nwant %q", trial, got, want)
		}
	}
}

// TestMergeMatchesSort: splitting an answer set into sorted parts and
// merging them gives the sorted whole, for batches and string rows,
// with empty parts in between.
func TestMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		vars := widths[trial%len(widths)]
		pool := make([]string, 4+rng.Intn(8))
		for i := range pool {
			pool[i] = randomConst(rng)
		}
		slices.Sort(pool)
		pool = slices.Compact(pool)
		vals := randomValuations(rng, vars, rng.Intn(len(pool)+1), pool)
		syms := sym.NewTable()
		k := 1 + rng.Intn(5)
		split := make([][]query.Valuation, k)
		for _, v := range vals {
			i := rng.Intn(k)
			split[i] = append(split[i], v)
		}
		parts := make([]Batch, k)
		rowParts := make([]Rows, k)
		for i := range parts {
			parts[i] = FromValuations(vars, split[i], syms)
			rowParts[i] = parts[i].Rows()
		}
		want := keyOrder(vals)
		merged, err := MergeBatches(vars, syms, parts)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(merged.Rows()); !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged batches %q\nwant %q", trial, got, want)
		}
		mergedRows, err := MergeRows(vars, rowParts)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(mergedRows); !slices.Equal(got, want) {
			t.Fatalf("trial %d: merged rows %q\nwant %q", trial, got, want)
		}
	}
	if _, err := MergeBatches([]string{"x"}, sym.NewTable(), []Batch{{Vars: []string{"x"}, IDs: []sym.ID{0}, Syms: sym.NewTable()}}); err == nil {
		t.Fatal("MergeBatches accepted a part over another table")
	}
	if _, err := MergeRows([]string{"x"}, []Rows{{Vars: []string{"y"}, Vals: []string{"a"}}}); err == nil {
		t.Fatal("MergeRows accepted a part with other columns")
	}
}

// TestRowsWireRoundTrip: the compact wire form decodes to the same
// rows and is what encoding/json renders for the maps; malformed rows
// are refused.
func TestRowsWireRoundTrip(t *testing.T) {
	r := Rows{Vars: []string{"x", "y"}, Vals: []string{"a<b", "", "\xff\n", "c,d"}}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := json.Marshal([]map[string]string{{"x": "a<b", "y": ""}, {"x": "\xff\n", "y": "c,d"}})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(maps) {
		t.Fatalf("wire form %s, encoding/json %s", data, maps)
	}
	var back Rows
	if err := json.Unmarshal([]byte(`[{"y":"","x":"a<b"},{"x":"\ufffd\n","y":"c,d"}]`), &back); err != nil {
		t.Fatal(err)
	}
	want := Rows{Vars: []string{"x", "y"}, Vals: []string{"a<b", "", "\ufffd\n", "c,d"}}
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("decoded %+v, want %+v", back, want)
	}
	for _, bad := range []string{
		`{}`, `[1]`, `[{"x": 1}]`, `[{}]`, `[{"x":"a"},{"y":"b"}]`,
		`[{"x":"a"},{"x":"a","y":"b"}]`, `[{"x":"a","x":"b"}]`, `[{"x":"a"}`,
	} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("decoded malformed rows %s", bad)
		}
	}
}
