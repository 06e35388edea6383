package answer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"
)

// The JSON form of an answer set is an array of objects, one per row,
// each mapping every column name to its constant: what encoding/json
// renders for a []map[string]string, byte for byte (keys sorted, the
// same string escaping), written straight from the rows.

// AppendJSON appends the batch as an indented JSON array, laid out as
// json.Indent lays out a value that starts on a line beginning with
// prefix, with a two-space indent.
func (b Batch) AppendJSON(dst []byte, prefix string) []byte {
	strs := b.Syms.Symbols()
	return appendObjects(dst, b.Vars, b.Len(), func(k int) string { return strs[b.IDs[k]] }, prefix, true)
}

// AppendJSON is Batch.AppendJSON for string rows.
func (r Rows) AppendJSON(dst []byte, prefix string) []byte {
	return appendObjects(dst, r.Vars, r.Len(), func(k int) string { return r.Vals[k] }, prefix, true)
}

// MarshalJSON renders the rows compactly: the cluster wire form.
func (r Rows) MarshalJSON() ([]byte, error) {
	return appendObjects(nil, r.Vars, r.Len(), func(k int) string { return r.Vals[k] }, "", false), nil
}

// UnmarshalJSON reads an array of objects of string values. The first
// object's keys, sorted, become the columns; every other object must
// have exactly the same keys.
func (r *Rows) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := expectDelim(dec, '['); err != nil {
		return err
	}
	out := Rows{}
	var keys, vals []string
	var seen []bool
	for dec.More() {
		if err := expectDelim(dec, '{'); err != nil {
			return err
		}
		keys, vals = keys[:0], vals[:0]
		for dec.More() {
			k, err := stringToken(dec)
			if err != nil {
				return err
			}
			v, err := stringToken(dec)
			if err != nil {
				return err
			}
			keys, vals = append(keys, k), append(vals, v)
		}
		if err := expectDelim(dec, '}'); err != nil {
			return err
		}
		if len(keys) == 0 {
			return fmt.Errorf("answer: a row with no columns")
		}
		if out.Vars == nil {
			out.Vars = slices.Clone(keys)
			slices.Sort(out.Vars)
		}
		row := len(out.Vals)
		out.Vals = append(out.Vals, make([]string, len(out.Vars))...)
		seen = append(seen[:0], make([]bool, len(out.Vars))...)
		for i, k := range keys {
			j, ok := slices.BinarySearch(out.Vars, k)
			if !ok || seen[j] || len(keys) != len(out.Vars) {
				return fmt.Errorf("answer: row keys %v, want the distinct columns %v", keys, out.Vars)
			}
			seen[j] = true
			out.Vals[row+j] = vals[i]
		}
	}
	if err := expectDelim(dec, ']'); err != nil {
		return err
	}
	*r = out
	return nil
}

func expectDelim(dec *json.Decoder, want json.Delim) error {
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("answer: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != want {
		return fmt.Errorf("answer: got %v, want %q", tok, want)
	}
	return nil
}

func stringToken(dec *json.Decoder) (string, error) {
	tok, err := dec.Token()
	if err != nil {
		return "", fmt.Errorf("answer: %w", err)
	}
	s, ok := tok.(string)
	if !ok {
		return "", fmt.Errorf("answer: got %v, want a string", tok)
	}
	return s, nil
}

// appendObjects writes n rows of the given columns, val(k) being the
// k-th value in row-major order. pretty selects json.Indent's layout
// under prefix; otherwise the output is compact.
func appendObjects(dst []byte, vars []string, n int, val func(k int) string, prefix string, pretty bool) []byte {
	if n == 0 {
		return append(dst, "[]"...)
	}
	rowOpen, rowClose, sep := "{", "}", ":"
	if pretty {
		rowOpen = "\n" + prefix + "  {"
		rowClose = "\n" + prefix + "  }"
		sep = ": "
	}
	// The bytes before each value: separator, line break and indent,
	// the escaped key and the colon. Computed once per column.
	heads := make([][]byte, len(vars))
	size := 2 + len(prefix) + 1
	for j, x := range vars {
		var h []byte
		if j > 0 {
			h = append(h, ',')
		}
		if pretty {
			h = append(h, '\n')
			h = append(h, prefix...)
			h = append(h, "    "...)
		}
		h = AppendString(h, x)
		h = append(h, sep...)
		heads[j] = h
		size += n * (len(h) + 2)
	}
	size += n * (len(rowOpen) + len(rowClose) + 1)
	for k := 0; k < n*len(vars); k++ {
		size += len(val(k))
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, '[')
	k := 0
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, rowOpen...)
		for j := range vars {
			dst = append(dst, heads[j]...)
			dst = AppendString(dst, val(k))
			k++
		}
		dst = append(dst, rowClose...)
	}
	if pretty {
		dst = append(dst, '\n')
		dst = append(dst, prefix...)
	}
	return append(dst, ']')
}

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string exactly as encoding/json
// encodes a string: the HTML-safe escaping of <, > and &, short
// escapes for \b \f \n \r \t " and \, \u00XX for other control bytes,
// U+2028 and U+2029 escaped, and each invalid UTF-8 byte replaced by
// \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
