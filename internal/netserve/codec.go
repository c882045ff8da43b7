package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"fivm/internal/data"
)

// Key values travel in two shapes: as repeated ?key= query parameters on
// the read path, and as JSON arrays on the write path. Both map onto the
// three key kinds of the data model (int64, float64, string).

// parseValue decodes one query-parameter value. An explicit kind prefix —
// "i:", "f:", or "s:" — forces the type; without one the value is sniffed
// int-first, then float, then string, which matches how the repl's .play
// loader reads CSV fields.
func parseValue(s string) (data.Value, error) {
	switch {
	case strings.HasPrefix(s, "i:"):
		n, err := strconv.ParseInt(s[2:], 10, 64)
		if err != nil {
			return data.Value{}, fmt.Errorf("bad int key %q: %w", s, err)
		}
		return data.Int(n), nil
	case strings.HasPrefix(s, "f:"):
		f, err := strconv.ParseFloat(s[2:], 64)
		if err != nil {
			return data.Value{}, fmt.Errorf("bad float key %q: %w", s, err)
		}
		return data.Float(f), nil
	case strings.HasPrefix(s, "s:"):
		return data.String(s[2:]), nil
	}
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return data.Int(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return data.Float(f), nil
	}
	return data.String(s), nil
}

// tupleFromQuery assembles the repeated ?key= parameters, in order, into a
// key tuple.
func tupleFromQuery(keys []string) (data.Tuple, error) {
	t := make(data.Tuple, 0, len(keys))
	for _, k := range keys {
		v, err := parseValue(k)
		if err != nil {
			return nil, err
		}
		t = append(t, v)
	}
	return t, nil
}

// wireTuples is the "tuples" member of a POST /apply update, parsed from the
// array text straight into exactly-sized key tuples (encoding/json hands
// UnmarshalJSON syntactically valid text only): numbers become int64 when
// they parse exactly and float64 otherwise, strings stay strings, anything
// else is an error; a null tuple is an empty one.
type wireTuples []data.Tuple

func (ts *wireTuples) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	if b[0] != '[' {
		return fmt.Errorf("tuples %.20q is not an array", b)
	}
	out := make(wireTuples, 0, bytes.Count(b, []byte{'['})-1)
	for i := nextElem(b, 1); b[i] != ']'; i = nextElem(b, i) {
		t, end, err := parseTuple(b, i)
		if err != nil {
			return err
		}
		out, i = append(out, t), end
	}
	*ts = out
	return nil
}

// nextElem skips the white space and the comma before an array element (or
// the closing bracket).
func nextElem(b []byte, i int) int {
	for b[i] <= ' ' || b[i] == ',' {
		i++
	}
	return i
}

// parseTuple parses the JSON array of numbers and strings at b[i] and
// returns the index just past it.
func parseTuple(b []byte, i int) (data.Tuple, int, error) {
	if b[i] == 'n' {
		return nil, i + len("null"), nil
	}
	if b[i] != '[' {
		return nil, i, fmt.Errorf("tuple %.20q is not an array", b[i:])
	}
	var buf [16]data.Value
	vals := buf[:0]
	for i = nextElem(b, i+1); b[i] != ']'; i = nextElem(b, i) {
		j := i + 1
		switch c := b[i]; {
		case c == '"':
			for ; b[j] != '"'; j++ {
				if b[j] == '\\' {
					j++
				}
			}
			j++
			var s string
			if err := json.Unmarshal(b[i:j], &s); err != nil {
				return nil, i, err
			}
			vals = append(vals, data.String(s))
		case c == '-' || '0' <= c && c <= '9':
			for b[j] > ' ' && b[j] != ',' && b[j] != ']' {
				j++
			}
			if n, err := strconv.ParseInt(string(b[i:j]), 10, 64); err == nil {
				vals = append(vals, data.Int(n))
			} else if f, err := strconv.ParseFloat(string(b[i:j]), 64); err == nil {
				vals = append(vals, data.Float(f))
			} else {
				return nil, i, fmt.Errorf("bad number %q: %w", b[i:j], err)
			}
		default:
			return nil, i, fmt.Errorf("unsupported key value %.20q (want number or string)", b[i:])
		}
		i = j
	}
	return append(make(data.Tuple, 0, len(vals)), vals...), i + 1, nil
}

// jsonTuple renders a key tuple as a JSON-encodable array, preserving the
// value kinds (ints stay integral, floats stay floats, strings strings).
func jsonTuple(t data.Tuple) []any {
	out := make([]any, len(t))
	for i, v := range t {
		switch v.Kind() {
		case data.KindInt:
			out[i] = v.AsInt()
		case data.KindFloat:
			out[i] = v.AsFloat()
		default:
			out[i] = v.AsString()
		}
	}
	return out
}
