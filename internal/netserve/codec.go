package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/url"
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

// readState is what a request on a hot route parses its query into and builds
// its reply in, pooled by the server: with at most eight keys and no escaped
// pair, nothing in it is allocated per request.
type readState struct {
	key             data.Tuple // the key= values in order; bindKey adds those given by column name
	keyErr          error      // the first key= value parseValue refused
	named           []param    // every pair with another name, in order
	minEpoch, limit string     // the first min_epoch and limit
	seenMin         bool
	seenLimit       bool

	n         int // rows visit has appended to rows
	truncated bool
	buf, rows []byte

	vals  [8]data.Value
	pairs [8]param
}

type param struct{ name, value string }

// reset drops what the last request left (key strings point into its URL) and
// keeps the reply buffers.
func (q *readState) reset() *readState {
	*q = readState{buf: q.buf[:0], rows: q.rows[:0]}
	q.key, q.named = q.vals[:0], q.pairs[:0]
	return q
}

// parse reads a raw query string in one pass, pair by pair as url.ParseQuery
// does: an empty pair is skipped, one with a ';' or a bad escape is dropped.
// QueryUnescape returns its argument when that has no '%' and no '+'.
func (q *readState) parse(query string) {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		name, value, _ := strings.Cut(pair, "=")
		name, err := url.QueryUnescape(name)
		if err != nil {
			continue
		}
		if value, err = url.QueryUnescape(value); err != nil {
			continue
		}
		switch name {
		case "key":
			v, err := parseValue(value)
			if err != nil && q.keyErr == nil {
				q.keyErr = err
			}
			q.key = append(q.key, v)
		case "min_epoch":
			if !q.seenMin {
				q.minEpoch, q.seenMin = value, true
			}
		case "limit":
			if !q.seenLimit {
				q.limit, q.seenLimit = value, true
			}
		default:
			q.named = append(q.named, param{name, value})
		}
	}
}

// bindKey completes the key with the parameters named after a column of the
// view's result schema — they must bind a prefix of it, each column once, and
// not be mixed with key= — and checks its length: a lookup needs a value for
// every column, a scan at most that many.
func (q *readState) bindKey(view string, schema data.Schema, scan bool) error {
	positional := len(q.key)
	for i, col := range schema {
		for _, p := range q.named {
			if p.name != col {
				continue
			}
			if positional > 0 || len(q.key) != i {
				return fmt.Errorf("view %q: keys given by column name bind a prefix of (%s), each column once, and do not mix with key=",
					view, strings.Join(schema, ", "))
			}
			v, err := parseValue(p.value)
			if err != nil {
				return err
			}
			q.key = append(q.key, v)
		}
	}
	if len(q.key) > len(schema) || !scan && len(q.key) < len(schema) {
		return fmt.Errorf("view %q is keyed by (%s): %d key values given", view, strings.Join(schema, ", "), len(q.key))
	}
	return nil
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
	out   []byte // the reply
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

// The reply side appends, into the request's pooled buffer, the bytes
// encoding/json writes for a map[string]any of the same members (sorted names,
// HTML-safe strings, its float format, a trailing newline) — except that a
// non-finite float, which encoding/json refuses, is null.

func appendInt(b []byte, n int64) []byte { return strconv.AppendInt(b, n, 10) }

func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2], b = b[n-1], b[:n-1] // e-09 is e-9
	}
	return b
}

// appendTuple renders a key tuple as a JSON array, preserving the value kinds
// (ints stay integral, floats stay floats, strings strings).
func appendTuple(b []byte, t data.Tuple) []byte {
	b = append(b, '[')
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		switch v.Kind() {
		case data.KindInt:
			b = appendInt(b, v.AsInt())
		case data.KindFloat:
			b = appendFloat(b, v.AsFloat())
		default:
			b = appendString(b, v.AsString())
		}
	}
	return append(b, ']')
}

func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' &&
			c != '\u2028' && c != '\u2029' && (c != utf8.RuneError || size > 1) {
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', byte(c))
		case '\b', '\f', '\n', '\r', '\t':
			b = append(b, '\\', "btn_fr"[c-'\b']) // \b \t \n \v \f \r are 8 to 13
		case utf8.RuneError:
			b = append(b, `\ufffd`...)
		default: // a control byte, an HTML-unsafe one, U+2028 or U+2029
			b = append(b, '\\', 'u', hex[c>>12], '0', hex[c>>4&0xF], hex[c&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// lookupBody builds the reply of a point lookup in q.buf.
func lookupBody[P any](q *readState, view string, p P, found bool, appendP func([]byte, P) []byte) {
	b := append(q.buf, `{"found":`...)
	b = strconv.AppendBool(b, found)
	b = appendTuple(append(b, `,"key":`...), q.key)
	b = appendP(append(b, `,"value":`...), p)
	b = appendString(append(b, `,"view":`...), view)
	q.buf = append(b, "}\n"...)
}

// visit returns the row visitor of a scan or a one-shot SELECT: the first
// limit rows are appended to q.rows as they are visited, one more marks the
// reply truncated.
func visit[P any](q *readState, limit int, appendP func([]byte, P) []byte) func(data.Tuple, P) bool {
	return func(t data.Tuple, p P) bool {
		if q.n == limit {
			q.truncated = true
			return false
		}
		b := q.rows
		if q.n > 0 {
			b = append(b, ',')
		}
		b = appendTuple(append(b, `{"key":`...), t)
		b = appendP(append(b, `,"value":`...), p)
		q.rows, q.n = append(b, '}'), q.n+1
		return true
	}
}

// rowsBody builds, in q.buf, the reply around the rows visit appended: a
// scan's names its view and the prefix scanned, a SELECT's neither.
func (q *readState) rowsBody(view string, scan bool) {
	b := appendInt(append(q.buf, `{"count":`...), int64(q.n))
	if scan {
		b = appendTuple(append(b, `,"prefix":`...), q.key)
	}
	b = append(append(b, `,"rows":[`...), q.rows...)
	b = strconv.AppendBool(append(b, `],"truncated":`...), q.truncated)
	if scan {
		b = appendString(append(b, `,"view":`...), view)
	}
	q.buf = append(b, "}\n"...)
}
