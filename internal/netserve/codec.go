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
	view            string     // the view route's {name}
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

// reset drops what the last request left (the view name and key strings point
// into its head) and keeps the reply buffers.
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

// applyState is what one POST /apply decodes into, pooled by the server: the
// body, the scratch the batch is built in and the arena of its tuples.
type applyState struct {
	body  bytes.Buffer
	arena data.BatchArena
	s     jsonScan
	ups   []db.Update  // every "updates" element decoded; the batch is a prefix
	ts    []data.Tuple // the tuple list being scanned
	vals  []data.Value // the tuple being scanned
	out   []byte       // the reply
}

// reset rewinds the arena: the batch is applied, or was never queued.
func (st *applyState) reset() {
	st.arena.Rewind()
	st.ups = st.ups[:0]
}

// decode reads one request body and returns its batch, built in the arena,
// and the number of tuples in it. The body is scanned once, from the buffer
// into the arena, accepting and refusing exactly what encoding/json does when
// it decodes into struct{ Updates []struct{ Rel string; Mult int64; Tuples
// [][]any } } with tuples of numbers and strings (FuzzApplyBody holds the scan
// to that). So it validates as it goes: a member name matches exactly or by
// case folding, escaped or not; a later duplicate member wins, null leaves one
// as it was; mult is what strconv.ParseInt takes; unknown members are skipped
// but validated; nesting deeper than 10 000 and trailing non-space are errors.
func (st *applyState) decode(body io.Reader) ([]db.Update, int, error) {
	st.body.Reset()
	if _, err := st.body.ReadFrom(body); err != nil {
		return nil, 0, err
	}
	s, n := &st.s, 0
	*s = jsonScan{b: st.body.Bytes()}
	if !s.lit("null") {
		s.open('{')
		for i := 0; s.next('}', i); i++ {
			if named(s.name, "updates") {
				n = st.updates()
			} else {
				s.skip()
			}
		}
	}
	if s.ws(); s.i < len(s.b) {
		s.fail("nothing after the value")
	}
	batch, tuples := st.ups[:n], 0
	for _, u := range batch {
		tuples += len(u.Tuples)
	}
	if tuples > maxApplyTuples {
		s.stop(errTooManyTuples)
	}
	if s.err != nil {
		return nil, 0, s.err
	}
	return batch, tuples, nil
}

// updates decodes the "updates" array at the cursor into st.ups as encoding/json
// decodes into a slice, and returns its length: element i decodes over what
// element i of an earlier "updates" left there; null or [] forgets them all.
func (st *applyState) updates() (n int) {
	s := &st.s
	if !s.lit("null") {
		s.open('[')
		for ; s.next(']', n); n++ {
			if n == len(st.ups) {
				st.ups = append(st.ups, st.arena.Update("", 0, nil))
			}
			if !s.lit("null") {
				s.open('{')
				st.update(&st.ups[n])
			}
		}
	}
	if n == 0 {
		st.ups = st.ups[:0]
	}
	return n
}

// update decodes the members of the object just opened into u.
func (st *applyState) update(u *db.Update) {
	s := &st.s
	for i := 0; s.next('}', i); i++ {
		switch {
		case s.lit("null"):
		case named(s.name, "rel"):
			if b := s.str(); s.err == nil {
				u.Rel = st.arena.Name(b)
			}
		case named(s.name, "mult"):
			v := s.num()
			if u.Mult = v.AsInt(); v.Kind() != data.KindInt {
				s.stop(fmt.Errorf("mult %v is not an int64", v))
			}
		case named(s.name, "tuples"):
			u.Tuples = st.tuples()
		default:
			s.skip()
		}
	}
}

// tuples scans the array of key tuples at the cursor — arrays of numbers and
// strings; a null tuple is an empty one — into tuples taken from the arena.
func (st *applyState) tuples() []data.Tuple {
	s, ts := &st.s, st.ts[:0]
	s.open('[')
	for s.next(']', len(ts)) {
		switch {
		case len(ts) == maxApplyTuples:
			s.stop(errTooManyTuples)
		case s.lit("null"):
			ts = append(ts, nil)
		default: // a tuple of numbers (see num) and heap strings
			s.open('[')
			vals := st.vals[:0]
			for s.next(']', len(vals)) {
				if s.ws() != '"' {
					vals = append(vals, s.num())
				} else if v := s.str(); len(v) > maxApplyStringBytes {
					s.stop(errStringTooLong)
				} else {
					vals = append(vals, data.String(string(v)))
				}
			}
			t := st.arena.Tuple(len(vals))
			copy(t, vals)
			ts, st.vals = append(ts, t), vals
		}
	}
	st.ts = ts
	return append(st.arena.Tuples(len(ts)), ts...)
}

// named reports whether a member name selects a field as encoding/json matches
// them: exactly or, what includes it, by case folding ("tupleſ" is tuples).
func named(name []byte, field string) bool { return bytes.EqualFold(name, []byte(field)) }

// jsonScan is a cursor that validates JSON text as encoding/json's scanner
// does. Its first error stops it: the cursor jumps to the end of the text.
type jsonScan struct {
	b     []byte
	i     int
	depth int    // the containers open around the cursor
	name  []byte // the member name next stepped past
	err   error
}

// stop ends the scan with err, unless an error ended it first.
func (s *jsonScan) stop(err error) {
	if s.err == nil {
		s.err = err
	}
	s.i = len(s.b)
}

// fail stops the scan: the text at the cursor is not what was wanted.
func (s *jsonScan) fail(want string) {
	if s.err == nil {
		s.err = fmt.Errorf("invalid JSON at offset %d (%.12q): want %s", s.i, s.b[s.i:], want)
	}
	s.i = len(s.b)
}

// ws steps past white space and returns the byte at the cursor, 0 at the end.
func (s *jsonScan) ws() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return c
		}
	}
	return 0
}

// eat steps past the byte c, if it is at the cursor.
func (s *jsonScan) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// lit steps past white space and the literal word, if that is what follows.
func (s *jsonScan) lit(word string) bool {
	s.ws()
	if len(s.b)-s.i < len(word) || string(s.b[s.i:s.i+len(word)]) != word {
		return false
	}
	s.i += len(word)
	return true
}

// open steps into the '{' or '[' that must be at the cursor, 10 000 deep at most.
func (s *jsonScan) open(c byte) {
	if s.depth++; s.ws() != c || s.depth > 10000 {
		s.fail("'" + string(c) + "' nested at most 10000 deep")
		return
	}
	s.i++
}

// next steps to element n of the innermost open container — past the comma
// unless n is 0 and, in an object, past the member's name (into s.name) and
// colon — and reports true, or past the container's closing bracket.
func (s *jsonScan) next(close byte, n int) bool {
	switch c := s.ws(); {
	case c == close:
		s.i++
		s.depth--
		return false
	case n > 0 && !s.eat(','):
		s.fail("',' or '" + string(close) + "'")
	case close == '}':
		if s.name = s.str(); s.ws() == ':' {
			s.i++
		} else {
			s.fail("':'")
		}
	}
	return s.err == nil
}

// skip validates the value at the cursor and steps past it.
func (s *jsonScan) skip() {
	switch c := s.ws(); c {
	case '{', '[':
		s.open(c)
		for n := 0; s.next(c+2, n); n++ { // '{'+2 is '}', '['+2 is ']'
			s.skip()
		}
	case '"':
		s.str()
	default:
		if !s.lit("true") && !s.lit("false") && !s.lit("null") {
			s.number()
		}
	}
}

// str steps past the string at the cursor and returns its value: the text
// between the quotes or, when that has an escape or is not valid UTF-8, what
// encoding/json unquotes it to (a bad byte or a lone surrogate is U+FFFD).
func (s *jsonScan) str() []byte {
	if s.ws() != '"' {
		s.fail("a string")
		return nil
	}
	start, plain := s.i, true
	for s.i++; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			if raw := s.b[start:s.i]; !plain || !utf8.Valid(raw) {
				var v string
				_ = json.Unmarshal(raw, &v) // valid by now: it cannot fail
				return []byte(v)
			}
			return s.b[start+1 : s.i-1]
		case c < ' ':
			s.fail("no control character in a string")
			return nil
		case c == '\\':
			plain = false
			if s.i++; s.i+4 < len(s.b) && s.b[s.i] == 'u' && len(bytes.Trim(s.b[s.i+1:s.i+5], "0123456789abcdefABCDEF")) == 0 {
				s.i += 4
			} else if s.i == len(s.b) || strings.IndexByte(`"\/bfnrt`, s.b[s.i]) < 0 {
				s.fail("an escape")
				return nil
			}
		}
	}
	s.fail(`'"'`)
	return nil
}

// number steps past the number at the cursor and returns its text.
func (s *jsonScan) number() []byte {
	start := s.i
	s.eat('-')
	if !s.eat('0') {
		s.digits()
	}
	if s.eat('.') {
		s.digits()
	}
	if s.eat('e') || s.eat('E') {
		_ = s.eat('+') || s.eat('-')
		s.digits()
	}
	if s.err != nil {
		return nil
	}
	return s.b[start:s.i]
}

// digits steps past the run of digits that must be at the cursor.
func (s *jsonScan) digits() {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == start {
		s.fail("a digit")
	}
}

// num scans the number at the cursor: an int64 when strconv.ParseInt takes
// it, as encoding/json decodes an int64, and a float64 otherwise.
func (s *jsonScan) num() data.Value {
	s.ws()
	text := s.number()
	if n, err := strconv.ParseInt(string(text), 10, 64); err == nil {
		return data.Int(n)
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.stop(fmt.Errorf("bad number %q: %w", text, err))
	}
	return data.Float(f)
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
