package scenario

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The /v1/solve wire codec. Load parses a SolveRequest by hand when it
// fully understands the document, and AppendSolveResponse encodes
// answers without reflection. Both produce exactly what encoding/json
// would: the parser declines anything it does not fully understand and
// leaves it to encoding/json, and the encoder formats every value as
// encoding/json does.

// maxFastBody bounds the request bytes Load buffers for the hand-written
// parser; a longer body, about 600 paths, goes to encoding/json.
const maxFastBody = 64 << 10

// wireScratch is Load's pooled per-request storage.
type wireScratch struct {
	buf   []byte
	paths []Path
}

var wirePool = sync.Pool{New: func() any { return &wireScratch{buf: make([]byte, 0, 4<<10)} }}

// loadSolveRequest is Load for a *SolveRequest. It takes the hand-written
// parser when req holds no pointer or slice encoding/json would decode
// into in place (a fresh request holds none), and falls back to
// encoding/json over the same bytes whenever the parser declines.
func loadSolveRequest(r io.Reader, req *SolveRequest) error {
	if req.Network.Paths != nil || req.Network.CostBound != nil || req.Timeout != nil {
		return decodeJSON(r, req)
	}
	ws := wirePool.Get().(*wireScratch)
	defer wirePool.Put(ws)
	var rest io.Reader
	ws.buf, rest = readBody(r, ws.buf[:0])
	if rest == nil {
		saved := *req
		p := wireParser{b: ws.buf, paths: ws.paths[:0]}
		ok := p.solveRequest(req)
		ws.paths = p.paths
		clear(ws.paths) // drop the pooled copies' name and gamma pointers
		if ok {
			return nil
		}
		*req = saved
	}
	src := io.Reader(bytes.NewReader(ws.buf))
	if rest != nil {
		src = io.MultiReader(src, rest)
	}
	return decodeJSON(src, req)
}

// readBody reads r to EOF into buf, stopping after maxFastBody bytes. A
// nil rest means buf holds all of r; otherwise rest yields what buf
// does not: the unread remainder of r, or the read error that stopped
// it.
func readBody(r io.Reader, buf []byte) (_ []byte, rest io.Reader) {
	for {
		if len(buf) >= maxFastBody {
			return buf, r
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxFastBody)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, errReader{err}
		}
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// wireParser parses the subset of JSON a SolveRequest takes. Every
// method returns false on anything outside that subset, and the caller
// then declines the whole document. It accepts exact-case keys, each at
// most once per object; numbers in the JSON grammar, converted with the
// strconv calls encoding/json makes; strings without escapes, in valid
// UTF-8; no null; and nothing but whitespace after the top-level object.
type wireParser struct {
	b     []byte
	i     int
	paths []Path // scratch the paths array is parsed into
}

func (p *wireParser) solveRequest(r *SolveRequest) bool {
	ok := p.object(func(key []byte) bool {
		switch string(key) {
		case "network":
			return p.network(&r.Network)
		case "objective":
			s, ok := p.str()
			r.Objective = string(s)
			return ok
		case "min_quality":
			return p.float(&r.MinQuality)
		case "timeout":
			r.Timeout = new(TimeoutSpec)
			return p.timeout(r.Timeout)
		case "session_id":
			s, ok := p.str()
			r.SessionID = string(s)
			return ok
		case "estimator":
			return p.bool(&r.Estimator)
		case "budget_ms":
			return p.float(&r.BudgetMs)
		}
		return false
	})
	p.ws()
	return ok && p.i == len(p.b)
}

func (p *wireParser) network(n *Network) bool {
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "rate_mbps":
			return p.float(&n.RateMbps)
		case "lifetime_ms":
			return p.float(&n.LifetimeMs)
		case "cost_bound":
			n.CostBound = new(float64)
			return p.float(n.CostBound)
		case "transmissions":
			return p.int(&n.Transmissions)
		case "paths":
			return p.pathList(&n.Paths)
		}
		return false
	})
}

// pathList parses the paths array into the scratch, then copies it out
// in one allocation. An empty array decodes to an empty, non-nil slice,
// as encoding/json decodes it.
func (p *wireParser) pathList(dst *[]Path) bool {
	if !p.consume('[') {
		return false
	}
	start := len(p.paths)
	if !p.consume(']') {
		for {
			p.paths = append(p.paths, Path{})
			if !p.path(&p.paths[len(p.paths)-1]) {
				return false
			}
			if p.consume(']') {
				break
			}
			if !p.consume(',') {
				return false
			}
		}
	}
	*dst = append(make([]Path, 0, len(p.paths)-start), p.paths[start:]...)
	return true
}

func (p *wireParser) path(pa *Path) bool {
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "name":
			s, ok := p.str()
			pa.Name = string(s)
			return ok
		case "bandwidth_mbps":
			return p.float(&pa.BandwidthMbps)
		case "delay_ms":
			return p.float(&pa.DelayMs)
		case "loss":
			return p.float(&pa.Loss)
		case "cost":
			return p.float(&pa.Cost)
		case "delay_gamma":
			g := new(Gamma)
			pa.DelayGamma = g
			return p.object(func(key []byte) bool {
				switch string(key) {
				case "loc_ms":
					return p.float(&g.LocMs)
				case "shape":
					return p.float(&g.Shape)
				case "scale_ms":
					return p.float(&g.ScaleMs)
				}
				return false
			})
		}
		return false
	})
}

func (p *wireParser) timeout(t *TimeoutSpec) bool {
	return p.object(func(key []byte) bool {
		switch string(key) {
		case "grid_step_ms":
			return p.float(&t.GridStepMs)
		case "refine_levels":
			return p.int(&t.RefineLevels)
		case "convolution_nodes":
			return p.int(&t.ConvolutionNodes)
		}
		return false
	})
}

// maxKeys is more keys than any object of a SolveRequest has: an object
// with this many has a duplicate or an unknown key.
const maxKeys = 8

// object parses an object, handing each key to member, which parses the
// value. A key seen twice in one object declines: encoding/json would
// merge the two values.
func (p *wireParser) object(member func(key []byte) bool) bool {
	if !p.consume('{') {
		return false
	}
	if p.consume('}') {
		return true
	}
	var seen [maxKeys][]byte
	for n := 0; n < maxKeys; n++ {
		key, ok := p.str()
		if !ok || !p.consume(':') {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !member(key) {
			return false
		}
		if p.consume('}') {
			return true
		}
		if !p.consume(',') {
			return false
		}
	}
	return false
}

// ws skips JSON whitespace.
func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (p *wireParser) consume(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str parses a string without escapes or control characters, returning
// its bytes in the parsed buffer; a caller that keeps them copies them.
func (p *wireParser) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	start, ascii := p.i, true
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			s := p.b[start:p.i]
			p.i++
			// encoding/json keeps valid UTF-8 as is and replaces
			// anything else with U+FFFD.
			return s, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// number returns the next number literal, checked against the JSON
// grammar: strconv accepts more (leading zeros, "inf", hex, underscores).
func (p *wireParser) number() ([]byte, bool) {
	p.ws()
	b, i := p.b, p.i
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if i >= len(b) || b[i] < '1' || b[i] > '9' || !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[p.i:i]
	p.i = i
	return lit, true
}

func (p *wireParser) float(dst *float64) bool {
	lit, ok := p.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

func (p *wireParser) int(dst *int) bool {
	lit, ok := p.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = int(n)
	return err == nil && int64(int(n)) == n
}

func (p *wireParser) bool(dst *bool) bool {
	p.ws()
	switch rest := p.b[p.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst = true
		p.i += len("true")
	case bytes.HasPrefix(rest, []byte("false")):
		*dst = false
		p.i += len("false")
	default:
		return false
	}
	return true
}

// AppendSolveResponse appends r's JSON encoding to dst: the bytes
// json.Marshal(r) returns, without reflection. Like json.Marshal it
// fails on a NaN or infinite number, with the same error; dst is then
// returned unchanged.
func AppendSolveResponse(dst []byte, r *SolveResponse) ([]byte, error) {
	e := wireEncoder{b: dst}
	e.b = append(e.b, '{')
	if r.SessionID != "" {
		e.b = append(e.b, `"session_id":`...)
		e.string(r.SessionID)
		e.b = append(e.b, ',')
	}
	e.b = append(e.b, `"resolved":`...)
	e.b = strconv.AppendBool(e.b, r.Resolved)
	if res := r.Result; res != nil {
		e.b = append(e.b, `,"result":{"quality":`...)
		e.float(res.Quality)
		if res.CostPerSecond != 0 {
			e.b = append(e.b, `,"cost_per_second":`...)
			e.float(res.CostPerSecond)
		}
		e.b = append(e.b, `,"shares":`...)
		if res.Shares == nil {
			e.b = append(e.b, "null"...)
		} else {
			e.b = append(e.b, '[')
			for i, sh := range res.Shares {
				if i > 0 {
					e.b = append(e.b, ',')
				}
				e.b = append(e.b, `{"combo":`...)
				e.ints(sh.Combo)
				e.b = append(e.b, `,"fraction":`...)
				e.float(sh.Fraction)
				e.b = append(e.b, `,"delivery_prob":`...)
				e.float(sh.DeliveryProb)
				e.b = append(e.b, '}')
			}
			e.b = append(e.b, ']')
		}
		e.b = append(e.b, `,"path_rates_mbps":`...)
		e.floats(res.PathRatesMbps)
		if res.DropRateMbps != 0 {
			e.b = append(e.b, `,"drop_rate_mbps":`...)
			e.float(res.DropRateMbps)
		}
		if len(res.TimeoutsMs) > 0 {
			e.b = append(e.b, `,"timeouts_ms":[`...)
			for i, row := range res.TimeoutsMs {
				if i > 0 {
					e.b = append(e.b, ',')
				}
				e.floats(row)
			}
			e.b = append(e.b, ']')
		}
		if res.Dispatch != "" {
			e.b = append(e.b, `,"dispatch":`...)
			e.string(res.Dispatch)
		}
		if res.Warm {
			e.b = append(e.b, `,"warm":true`...)
		}
		e.b = append(e.b, '}')
	}
	if r.Degraded {
		e.b = append(e.b, `,"degraded":true`...)
	}
	if e.err != nil {
		return dst, e.err
	}
	return append(e.b, '}'), nil
}

// wireEncoder appends JSON values to b, keeping the first error.
type wireEncoder struct {
	b   []byte
	err error
}

// float appends f as encoding/json formats a float64: the shortest
// representation that round-trips, in exponent form outside [1e-6,
// 1e21).
func (e *wireEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		// e-09 becomes e-9.
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *wireEncoder) floats(fs []float64) {
	if fs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(f)
	}
	e.b = append(e.b, ']')
}

func (e *wireEncoder) ints(ns []int) {
	if ns == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, n := range ns {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(n), 10)
	}
	e.b = append(e.b, ']')
}

// string appends s quoted. Printable ASCII other than the characters
// encoding/json escapes (quote, backslash, and <, > and & for HTML)
// is copied as is; any other string is rare on this wire and is
// quoted by encoding/json itself. That path hands json.Marshal a copy:
// boxing s itself would make escape analysis move every response this
// encoder writes, and the caller's result holding it, to the heap.
func (e *wireEncoder) string(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(strings.Clone(s)) // a string always encodes
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}
