package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"

	"fivm/internal/data"
	"fivm/internal/db"
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

// POST /apply limits, fixed like the 32 MiB body cap beside them: a batch of
// more than maxApplyTuples tuples is 413 (split it), a string value longer
// than maxApplyStringBytes is 400. Both are enforced while the tuples are
// scanned, before anything reaches the queue.
const (
	maxApplyBody        = 32 << 20
	maxApplyTuples      = 1 << 18
	maxApplyStringBytes = 64 << 10
)

var (
	errTooManyTuples = fmt.Errorf("more than %d tuples in one batch", maxApplyTuples)
	errStringTooLong = fmt.Errorf("string value longer than %d bytes", maxApplyStringBytes)
)

// applyReq is the body of POST /apply as encoding/json sees it: the envelope
// is decoded by reflection, the tuple arrays by wireTuples.
type applyReq struct {
	Updates []applyUpdate `json:"updates"`
}

type applyUpdate struct {
	Rel    string     `json:"rel"`
	Mult   int64      `json:"mult"`
	Tuples wireTuples `json:"tuples"`
}

// wireTuples is the "tuples" member of a POST /apply update, scanned from the
// array text (encoding/json hands UnmarshalJSON syntactically valid text
// only) straight into the arena its request primed it with. Unmarshal decodes
// into the elements a slice already has without zeroing them, which is how
// the arena gets here; an element Unmarshal had to grow the slice for has
// none and scans into heap tuples (a nil arena), correct all the same.
type wireTuples struct {
	ts    []data.Tuple
	arena *data.BatchArena
}

func (w *wireTuples) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	ts, err := scanTuples(b, w.arena)
	if err == nil {
		w.ts = ts
	}
	return err
}

// applyState is what one POST /apply decodes into, pooled by the server: the
// body bytes, the envelope and the arena holding the batch's updates, tuple
// lists and tuples until the batch is applied.
type applyState struct {
	body  bytes.Buffer
	req   applyReq
	arena data.BatchArena
}

func newApplyState() *applyState {
	st := &applyState{req: applyReq{Updates: make([]applyUpdate, 0, 4)}}
	st.reset()
	return st
}

// reset rewinds the arena — the batch is applied, or was never queued — and
// primes every element the envelope's slice has room for.
func (st *applyState) reset() {
	st.arena.Rewind()
	us := st.req.Updates[:cap(st.req.Updates)]
	for i := range us {
		us[i] = applyUpdate{Tuples: wireTuples{arena: &st.arena}}
	}
	st.req.Updates = us[:0]
}

// decode reads one request body and returns its batch, built in the arena,
// and the number of tuples in it.
func (st *applyState) decode(body io.Reader) ([]db.Update, int, error) {
	st.body.Reset()
	if _, err := st.body.ReadFrom(body); err != nil {
		return nil, 0, err
	}
	if err := json.Unmarshal(st.body.Bytes(), &st.req); err != nil {
		return nil, 0, err
	}
	batch, tuples := st.arena.Updates(len(st.req.Updates)), 0
	for i := range st.req.Updates {
		u := &st.req.Updates[i]
		if tuples += len(u.Tuples.ts); tuples > maxApplyTuples {
			return nil, 0, errTooManyTuples
		}
		batch = append(batch, u.Tuples.arena.Update(u.Rel, u.Mult, u.Tuples.ts))
	}
	return batch, tuples, nil
}

// scanTuples parses the text of a JSON array of key tuples — arrays of
// numbers and strings; a null tuple is an empty one — into tuples taken from
// a. Numbers become int64 when they parse exactly and float64 otherwise,
// strings stay (heap) strings, anything else is an error. b is syntactically
// valid JSON, so the scan never runs off its end.
func scanTuples(b []byte, a *data.BatchArena) ([]data.Tuple, error) {
	if b[0] != '[' {
		return nil, fmt.Errorf("tuples %.20q is not an array", b)
	}
	// Every tuple opens a bracket; brackets inside strings only overestimate.
	out := a.Tuples(min(bytes.Count(b, []byte{'['})-1, maxApplyTuples))
	var buf [16]data.Value
	for i := nextElem(b, 1); b[i] != ']'; i = nextElem(b, i) {
		if len(out) == maxApplyTuples {
			return nil, errTooManyTuples
		}
		if b[i] == 'n' {
			out, i = append(out, nil), i+len("null")
			continue
		}
		if b[i] != '[' {
			return nil, fmt.Errorf("tuple %.20q is not an array", b[i:])
		}
		vals := buf[:0]
		for i = nextElem(b, i+1); b[i] != ']'; i = nextElem(b, i) {
			v, end, err := scanValue(b, i)
			if err != nil {
				return nil, err
			}
			vals, i = append(vals, v), end
		}
		t := a.Tuple(len(vals))
		copy(t, vals)
		out, i = append(out, t), i+1
	}
	return out, nil
}

// nextElem skips the white space and the comma before an array element (or
// the closing bracket).
func nextElem(b []byte, i int) int {
	for b[i] <= ' ' || b[i] == ',' {
		i++
	}
	return i
}

// scanValue parses the JSON number or string at b[i] and returns the index
// just past it.
func scanValue(b []byte, i int) (data.Value, int, error) {
	j := i + 1
	switch c := b[i]; {
	case c == '"':
		plain := true // no escape: the text between the quotes is the value
		for ; b[j] != '"'; j++ {
			if b[j] == '\\' {
				plain = false
				j++
			}
		}
		j++
		var s string
		if plain && utf8.Valid(b[i+1:j-1]) {
			s = string(b[i+1 : j-1])
		} else if err := json.Unmarshal(b[i:j], &s); err != nil {
			return data.Value{}, i, err
		}
		if len(s) > maxApplyStringBytes {
			return data.Value{}, i, errStringTooLong
		}
		return data.String(s), j, nil
	case c == '-' || '0' <= c && c <= '9':
		for b[j] > ' ' && b[j] != ',' && b[j] != ']' {
			j++
		}
		if n, err := strconv.ParseInt(string(b[i:j]), 10, 64); err == nil {
			return data.Int(n), j, nil
		}
		f, err := strconv.ParseFloat(string(b[i:j]), 64)
		if err != nil {
			return data.Value{}, i, fmt.Errorf("bad number %q: %w", b[i:j], err)
		}
		return data.Float(f), j, nil
	}
	return data.Value{}, i, fmt.Errorf("unsupported key value %.20q (want number or string)", b[i:])
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
