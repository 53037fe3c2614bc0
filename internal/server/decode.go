package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// Request decoding. A /v1/* body is read once into one buffer and
// decoded by a byte-level pass over one flat object: each request type
// names its keys in a switch (field), string bodies are scanned with a
// stop table and copied in runs, and integers, booleans and the nested
// budget object are decoded in place. The pass declines whatever it
// cannot decode exactly as encoding/json would (an unknown or
// case-folded key, null, a number that is not a plain integer in
// range, invalid UTF-8, malformed syntax, trailing bytes); the request
// is then zeroed and the same bytes are decoded by encoding/json, which
// stays the authority for every error status and message and the
// reference FuzzDecodeRequest compares the pass against.

// request is a pointer to a request type whose field method decodes
// one key of its JSON object.
type request[T any] interface {
	*T
	fieldDecoder
}

// fieldDecoder decodes the value of key at d's position into the
// object, or reports false to decline the whole body.
type fieldDecoder interface {
	field(d *decoder, key []byte) bool
}

// decodeJSON decodes the request body strictly: unknown fields and
// trailing data are invalid input, and a body that trips the
// MaxBytesReader surfaces as a limit error. limit is the server's body
// cap (≤ 0: none), which bounds how far Content-Length may presize the
// read buffer.
func decodeJSON[T any, P request[T]](r *http.Request, req P, limit int) error {
	data, rerr := readBody(r, limit)
	if rerr == nil && decodeFast(data, req) {
		return nil
	}
	var zero T
	*req = zero
	// The reference decoder sees what a streaming read of the body
	// would: the bytes read, then the read error (a MaxBytesError after
	// a complete object is "trailing data", as it always was).
	var body io.Reader = bytes.NewReader(data)
	if rerr != nil {
		body = io.MultiReader(body, errReader{rerr})
	}
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return mbe
		}
		return badRequest("invalid JSON request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("trailing data after JSON request object")
	}
	return nil
}

// readBody reads the whole body once. A Content-Length within the cap
// sizes the buffer exactly (plus the byte the EOF read needs), up to
// maxPresize: a header alone must not make the server allocate the
// cap. Beyond that, or without a usable length, the buffer grows as
// bytes arrive, to at most twice what was received.
func readBody(r *http.Request, limit int) ([]byte, error) {
	size := 512
	if cl := r.ContentLength; cl > 0 && limit > 0 && cl <= int64(limit) {
		size = int(min(cl, maxPresize)) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// maxPresize bounds the buffer a Content-Length alone can size.
const maxPresize = 1 << 20

// errReader replays a read error after the bytes before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeFast decodes data, one JSON object and nothing else, into f;
// false means declined, with f possibly part filled.
func decodeFast(data []byte, f fieldDecoder) bool {
	d := decoder{data: data}
	d.space()
	if !d.object(f) {
		return false
	}
	d.space()
	return d.i == len(d.data)
}

// decoder is a position in a request body.
type decoder struct {
	data []byte
	i    int
}

// stop marks the bytes that end a plain run inside a JSON string: the
// quote, the backslash, control bytes (invalid unescaped) and non-ASCII
// bytes (checked as UTF-8).
var stop = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// hexVal maps a hex digit to its value and every other byte to -1.
var hexVal = func() (t [256]int8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = int8(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = int8(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = int8(c - 'A' + 10)
		default:
			t[c] = -1
		}
	}
	return t
}()

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// object decodes {"key": value, ...}, handing each value to f. A key
// is matched byte for byte, so one with an escape, or one that
// encoding/json would match only case-insensitively, declines.
func (d *decoder) object(f fieldDecoder) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		if !d.consume('"') {
			return false
		}
		n := bytes.IndexAny(d.data[d.i:], `"\`)
		if n < 0 || d.data[d.i+n] != '"' {
			return false
		}
		key := d.data[d.i : d.i+n]
		d.i += n + 1
		if !d.consume(':') {
			return false
		}
		d.space()
		if !f.field(d, key) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// str decodes a JSON string. The first pass finds its end, validates
// it and measures the decoded length; a string with escapes is then
// decoded into a buffer of exactly that length.
func (d *decoder) str(p *string) bool {
	data := d.data
	if d.i >= len(data) || data[d.i] != '"' {
		return false
	}
	start := d.i + 1
	i, saved := start, 0
	for {
		for i < len(data) && !stop[data[i]] {
			i++
		}
		if i == len(data) {
			return false
		}
		switch c := data[i]; {
		case c == '"':
			if saved == 0 { // every escape is longer than what it decodes to
				*p = string(data[start:i])
			} else {
				*p = unescape(data[start:i], i-start-saved)
			}
			d.i = i + 1
			return true
		case c == '\\':
			r, size := escape(data[i:])
			if size == 0 {
				return false
			}
			saved += size - utf8.RuneLen(r)
			i += size
		case c < 0x20:
			return false
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
}

// escape decodes the escape sequence at the start of s (s[0] is the
// backslash) into its rune and the number of bytes it spans; 0 bytes
// means invalid. A surrogate pair is one rune; any other surrogate
// decodes to U+FFFD, as in encoding/json.
func escape(s []byte) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\', '/':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		r := hex4(s[2:])
		if r < 0 {
			return 0, 0
		}
		if !utf16.IsSurrogate(r) {
			return r, 6
		}
		if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
			if dec := utf16.DecodeRune(r, hex4(s[8:])); dec != utf8.RuneError {
				return dec, 12
			}
		}
		return utf8.RuneError, 6
	}
	return 0, 0
}

// hex4 decodes four hex digits, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	a, b, c, e := hexVal[s[0]], hexVal[s[1]], hexVal[s[2]], hexVal[s[3]]
	if a|b|c|e < 0 {
		return -1
	}
	return rune(a)<<12 | rune(b)<<8 | rune(c)<<4 | rune(e)
}

// unescape decodes the validated body of a JSON string whose decoded
// length is n, copying the runs between escapes whole.
func unescape(s []byte, n int) string {
	var b strings.Builder
	b.Grow(n)
	for {
		k := bytes.IndexByte(s, '\\')
		if k < 0 {
			b.Write(s)
			return b.String()
		}
		b.Write(s[:k])
		r, size := escape(s[k:])
		b.WriteRune(r)
		s = s[k+size:]
	}
}

// integer decodes a plain integer: an optional minus sign and digits
// without a leading zero, in range of T. A fraction or exponent
// declines, as encoding/json rejects it for an integer field.
func integer[T int | int64](d *decoder, p *T) bool {
	data, i := d.data, d.i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	start := i
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	digits := data[start:i]
	if len(digits) == 0 || len(digits) > 19 || (digits[0] == '0' && len(digits) > 1) {
		return false
	}
	if i < len(data) && (data[i] == '.' || data[i] == 'e' || data[i] == 'E') {
		return false
	}
	var u uint64 // 19 digits cannot overflow it
	for _, c := range digits {
		u = u*10 + uint64(c-'0')
	}
	if u > 1<<63 || (u == 1<<63 && !neg) {
		return false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if int64(T(v)) != v {
		return false
	}
	*p, d.i = T(v), i
	return true
}

func (d *decoder) bool(p *bool) bool {
	rest := d.data[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		*p, d.i = true, d.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*p, d.i = false, d.i+5
	default:
		return false
	}
	return true
}

func (p *schemaPair) field(d *decoder, key []byte) bool {
	switch string(key) {
	case "source_dtd":
		return d.str(&p.SourceDTD)
	case "target_dtd":
		return d.str(&p.TargetDTD)
	case "source_root":
		return d.str(&p.SourceRoot)
	case "target_root":
		return d.str(&p.TargetRoot)
	}
	return false
}

func (b *Budget) field(d *decoder, key []byte) bool {
	switch string(key) {
	case "timeout_ms":
		return integer(d, &b.TimeoutMS)
	case "max_input_bytes":
		return integer(d, &b.MaxInputBytes)
	case "max_nodes":
		return integer(d, &b.MaxNodes)
	case "max_depth":
		return integer(d, &b.MaxDepth)
	case "max_types":
		return integer(d, &b.MaxTypes)
	}
	return false
}

// field leaves threshold, a float, to encoding/json.
func (req *EmbedRequest) field(d *decoder, key []byte) bool {
	switch string(key) {
	case "att":
		return d.str(&req.Att)
	case "heuristic":
		return d.str(&req.Heuristic)
	case "seed":
		return integer(d, &req.Seed)
	case "restarts":
		return integer(d, &req.Restarts)
	case "explain":
		return d.bool(&req.Explain)
	case "budget":
		return d.object(&req.Budget)
	}
	return req.schemaPair.field(d, key)
}

func (req *TranslateRequest) field(d *decoder, key []byte) bool {
	switch string(key) {
	case "embedding":
		return d.str(&req.Embedding)
	case "query":
		return d.str(&req.Query)
	case "show_regex":
		return d.bool(&req.ShowRegex)
	case "no_optimize":
		return d.bool(&req.NoOptimize)
	case "budget":
		return d.object(&req.Budget)
	}
	return req.schemaPair.field(d, key)
}

func (req *MigrateRequest) field(d *decoder, key []byte) bool {
	switch string(key) {
	case "embedding":
		return d.str(&req.Embedding)
	case "document":
		return d.str(&req.Document)
	case "invert":
		return d.bool(&req.Invert)
	case "budget":
		return d.object(&req.Budget)
	}
	return req.schemaPair.field(d, key)
}
