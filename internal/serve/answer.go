package serve

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
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
	for _, p := range resp.Paths {
		for _, f := range [...]float64{p.NCUs, p.TrajectoryUs, p.BestUs, p.MinUs, p.JitterUs} {
			if math.IsInf(f, 0) || math.IsNaN(f) {
				writeError(w, errf(CodeAnalysis, "path %s: non-finite bound %v", p.Path, f))
				return
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	a := answerWriter{w: w, buf: make([]byte, 0, answerBufBytes)}
	a.raw("{\n  \"session\": ")
	a.str(resp.Session)
	a.raw(",\n  \"seq\": ")
	a.int(resp.Seq)
	a.raw(",\n  \"committed\": ")
	a.raw(strconv.FormatBool(resp.Committed))
	if len(resp.Deltas) > 0 {
		a.raw(",\n  \"deltas\": [")
		for i, d := range resp.Deltas {
			if i > 0 {
				a.raw(",")
			}
			a.raw("\n    ")
			a.str(d)
		}
		a.raw("\n  ]")
	}
	a.raw(",\n  \"analysis\": ")
	a.str(resp.Analysis)
	a.raw(",\n  \"paths\": ")
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
			a.raw("\n    {\n      \"path\": ")
			a.str(p.Path)
			a.raw(",\n      \"ncUs\": ")
			a.float(p.NCUs)
			a.raw(",\n      \"trajectoryUs\": ")
			a.float(p.TrajectoryUs)
			a.raw(",\n      \"bestUs\": ")
			a.float(p.BestUs)
			a.raw(",\n      \"minUs\": ")
			a.float(p.MinUs)
			a.raw(",\n      \"jitterUs\": ")
			a.float(p.JitterUs)
			a.raw("\n    }")
		}
		a.raw("\n  ]")
	}
	if pv := resp.Provenance; pv != nil {
		a.raw(",\n  \"provenance\": {\n    \"configFnv64\": ")
		a.str(pv.ConfigFNV64)
		a.raw(",\n    \"engines\": ")
		a.str(pv.Engines)
		a.raw(",\n    \"analysis\": ")
		a.str(pv.Analysis)
		a.raw(",\n    \"workers\": ")
		a.int(pv.Workers)
		a.raw(",\n    \"obsVersion\": ")
		a.str(pv.ObsVersion)
		a.raw("\n  }")
	}
	a.raw("\n}\n")
	a.flush()
}

// answerWriter appends JSON tokens to a fixed-capacity buffer and hands
// the buffer to w whenever the next token would not fit. After a failed
// write (the client went away) the rest of the answer is dropped.
type answerWriter struct {
	w   io.Writer
	buf []byte
	err error
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

func (a *answerWriter) int(v int) {
	if len(a.buf)+numberBytes > cap(a.buf) {
		a.flush()
	}
	a.buf = strconv.AppendInt(a.buf, int64(v), 10)
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
