package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
)

// answerBufBytes bounds the answer writer's buffer. An answer is sent
// in chunks of at most this size, so a 5,004-path round (about 1 MB of
// JSON) costs one 32 KiB buffer instead of its whole encoding twice
// over (encoding/json's compact form, then its indented copy).
const answerBufBytes = 32 << 10

// writeAnswer writes an analysis round: exactly the bytes that
// json.NewEncoder(w) with SetIndent("", "  ") writes for *resp, built
// without reflection and sent as the buffer fills. The buffer lives for
// this call only; nothing is kept between requests.
//
// Every bound is checked before the status line goes out. encoding/json
// refuses NaN and ±Inf, and writeJSON finds out only after the 2xx
// status is sent, so the client would get an empty body; here such a
// round is an SRV010 error body instead.
//
// TestAnswerMatchesEncodingJSON fills every exported field of
// AnalysisResponse, PathBound and Provenance and compares the bytes
// with encoding/json's, so a field added to one of them fails it until
// it is written here too.
func writeAnswer(w http.ResponseWriter, status int, resp *AnalysisResponse) {
	if p, f, bad := nonFinite(resp); bad {
		writeError(w, errf(CodeAnalysis, "path %s: non-finite bound %v", p, f))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	a := answerWriter{w: w, buf: make([]byte, 0, answerBufBytes), indent: true}
	a.round(resp, nil)
	a.raw("\n")
	a.flush()
}

// eventData writes an analysis round's SSE payload: exactly the bytes
// json.Marshal writes for AnalysisEvent{*resp, counters}, one line, in
// chunks of at most answerBufBytes. A round with a non-finite bound has
// no payload (nil): json.Marshal refuses it too.
func eventData(resp *AnalysisResponse, counters map[string]int64) [][]byte {
	if _, _, bad := nonFinite(resp); bad {
		return nil
	}
	var c chunks
	a := answerWriter{w: &c, buf: make([]byte, 0, answerBufBytes)}
	a.round(resp, counters)
	a.flush()
	return c
}

// chunks keeps a copy of every write: the answerWriter reuses its
// buffer after each one.
type chunks [][]byte

func (c *chunks) Write(b []byte) (int, error) {
	*c = append(*c, bytes.Clone(b))
	return len(b), nil
}

// nonFinite returns the first path with a NaN or infinite bound, and
// that bound.
func nonFinite(resp *AnalysisResponse) (string, float64, bool) {
	for _, p := range resp.Paths {
		for _, f := range [...]float64{p.NCUs, p.TrajectoryUs, p.BestUs, p.MinUs, p.JitterUs} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return p.Path, f, true
			}
		}
	}
	return "", 0, false
}

// round writes resp as one JSON object, and counters, when it has a
// key, as a last "counters" member (AnalysisEvent's). Map keys are
// written sorted, as encoding/json sorts them.
func (a *answerWriter) round(resp *AnalysisResponse, counters map[string]int64) {
	a.lit("{\n  \"session\": ")
	a.str(resp.Session)
	a.lit(",\n  \"seq\": ")
	a.int(int64(resp.Seq))
	a.lit(",\n  \"committed\": ")
	a.raw(strconv.FormatBool(resp.Committed))
	if len(resp.Deltas) > 0 {
		a.lit(",\n  \"deltas\": [")
		for i, d := range resp.Deltas {
			if i > 0 {
				a.raw(",")
			}
			a.lit("\n    ")
			a.str(d)
		}
		a.lit("\n  ]")
	}
	a.lit(",\n  \"analysis\": ")
	a.str(resp.Analysis)
	a.lit(",\n  \"paths\": ")
	switch {
	case resp.Paths == nil:
		a.raw("null")
	case len(resp.Paths) == 0:
		a.raw("[]")
	default:
		a.raw("[")
		for i := range resp.Paths {
			p := &resp.Paths[i]
			if i > 0 {
				a.raw(",")
			}
			a.lit("\n    {\n      \"path\": ")
			a.str(p.Path)
			a.lit(",\n      \"ncUs\": ")
			a.float(p.NCUs)
			a.lit(",\n      \"trajectoryUs\": ")
			a.float(p.TrajectoryUs)
			a.lit(",\n      \"bestUs\": ")
			a.float(p.BestUs)
			a.lit(",\n      \"minUs\": ")
			a.float(p.MinUs)
			a.lit(",\n      \"jitterUs\": ")
			a.float(p.JitterUs)
			a.lit("\n    }")
		}
		a.lit("\n  ]")
	}
	if pv := resp.Provenance; pv != nil {
		a.lit(",\n  \"provenance\": {\n    \"configFnv64\": ")
		a.str(pv.ConfigFNV64)
		a.lit(",\n    \"engines\": ")
		a.str(pv.Engines)
		a.lit(",\n    \"analysis\": ")
		a.str(pv.Analysis)
		a.lit(",\n    \"workers\": ")
		a.int(int64(pv.Workers))
		a.lit(",\n    \"obsVersion\": ")
		a.str(pv.ObsVersion)
		a.lit("\n  }")
	}
	if len(counters) > 0 {
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		slices.Sort(names)
		a.lit(",\n  \"counters\": {")
		for i, name := range names {
			if i > 0 {
				a.raw(",")
			}
			a.lit("\n    ")
			a.str(name)
			a.lit(": ")
			a.int(counters[name])
		}
		a.lit("\n  }")
	}
	a.lit("\n}")
}

// answerWriter appends JSON tokens to a fixed-capacity buffer and hands
// the buffer to w whenever the next token would not fit. After a failed
// write (the client went away) the rest of the answer is dropped.
type answerWriter struct {
	w   io.Writer
	buf []byte
	err error
	// indent selects encoding/json's indented form (the Encoder with
	// SetIndent("", "  ")); false selects its compact form (Marshal).
	indent bool
}

// numberBytes bounds one number's text: a float64 in encoding/json's
// form is at most 24 bytes ("-1.2345678901234567e-308"), an int at
// most 20.
const numberBytes = 32

func (a *answerWriter) flush() {
	if len(a.buf) > 0 && a.err == nil {
		_, a.err = a.w.Write(a.buf)
	}
	a.buf = a.buf[:0]
}

// raw appends s, which may be longer than the buffer.
func (a *answerWriter) raw(s string) {
	for len(s) > 0 {
		if len(a.buf) == cap(a.buf) {
			a.flush()
		}
		n := min(len(s), cap(a.buf)-len(a.buf))
		a.buf = append(a.buf, s[:n]...)
		s = s[n:]
	}
}

// lit appends a structural token, written in the indented form. The
// compact form drops its spaces and line breaks: no token has a space
// inside a quoted key.
func (a *answerWriter) lit(s string) {
	if a.indent {
		a.raw(s)
		return
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c != ' ' && c != '\n' {
			if len(a.buf) == cap(a.buf) {
				a.flush()
			}
			a.buf = append(a.buf, c)
		}
	}
}

// str appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes is copied as is; any other string
// is json.Marshal's (HTML-escaped, as the Encoder escapes it).
func (a *answerWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			a.raw(string(b))
			return
		}
	}
	a.raw(`"`)
	a.raw(s)
	a.raw(`"`)
}

func (a *answerWriter) int(v int64) {
	if len(a.buf)+numberBytes > cap(a.buf) {
		a.flush()
	}
	a.buf = strconv.AppendInt(a.buf, v, 10)
}

// float appends a finite f as encoding/json writes a float64: the
// shortest decimal that parses back to the same bits, in exponent form
// below 1e-6 and from 1e21 in magnitude, with e-09 written e-9.
func (a *answerWriter) float(f float64) {
	if len(a.buf)+numberBytes > cap(a.buf) {
		a.flush()
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	a.buf = strconv.AppendFloat(a.buf, f, format, -1, 64)
	if n := len(a.buf); format == 'e' && n >= 4 && a.buf[n-4] == 'e' && a.buf[n-3] == '-' && a.buf[n-2] == '0' {
		a.buf[n-2] = a.buf[n-1]
		a.buf = a.buf[:n-1]
	}
}
