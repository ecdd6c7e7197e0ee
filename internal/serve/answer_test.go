package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// indentedJSON is the reference writeAnswer is held to: the bytes
// writeJSON wrote for an analysis round before writeAnswer existed.
func indentedJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// chunkRecorder is a ResponseRecorder that also records its largest
// single Write.
type chunkRecorder struct {
	*httptest.ResponseRecorder
	maxWrite int
}

func (c *chunkRecorder) Write(b []byte) (int, error) {
	c.maxWrite = max(c.maxWrite, len(b))
	return c.ResponseRecorder.Write(b)
}

// checkAnswerBytes writes resp through writeAnswer and requires
// encoding/json's bytes, the status and the content type, and writes
// no larger than the writer's buffer.
func checkAnswerBytes(t *testing.T, name string, resp *AnalysisResponse) {
	t.Helper()
	want := indentedJSON(t, resp)
	rec := &chunkRecorder{ResponseRecorder: httptest.NewRecorder()}
	writeAnswer(rec, http.StatusCreated, resp)
	if rec.Code != http.StatusCreated {
		t.Fatalf("%s: status %d, want %d: %s", name, rec.Code, http.StatusCreated, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: bytes differ from encoding/json's at offset %d:\ngot  %.120q\nwant %.120q", name, i, got[i:], want[i:])
	}
	if rec.maxWrite > answerBufBytes {
		t.Errorf("%s: one write of %d bytes, over the %d-byte buffer", name, rec.maxWrite, answerBufBytes)
	}
}

// fill sets v, and every exported field below it, to a non-zero value
// that differs from every other field's, so a field the writer omits or
// mixes up changes the bytes.
func fill(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Int:
		v.SetInt(int64(*n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.125)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fill(t, s.Index(i), n)
		}
		v.Set(s)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fill(t, p.Elem(), n)
		v.Set(p)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("no filler for a %s: teach fill and writeAnswer the new field", v.Type())
	}
}

// TestAnswerMatchesEncodingJSON pins writeAnswer to encoding/json's
// indented encoding byte for byte: nil and empty lists, provenance on
// and off, the float forms at both exponent cutoffs, every class of
// string escape, and an answer long enough to flush the buffer many
// times. The first case fills every exported field through reflection.
func TestAnswerMatchesEncodingJSON(t *testing.T) {
	var full AnalysisResponse
	n := 0
	fill(t, reflect.ValueOf(&full).Elem(), &n)
	checkAnswerBytes(t, "every field", &full)

	bound := func(path string, f ...float64) PathBound {
		return PathBound{Path: path, NCUs: f[0], TrajectoryUs: f[1], BestUs: f[2], MinUs: f[3], JitterUs: f[4]}
	}
	prov := &Provenance{ConfigFNV64: "cbf29ce484222325", Engines: "netcalc+trajectory", Analysis: "FIFO", Workers: 2, ObsVersion: "oplog/3"}
	long := strings.Repeat("v", 3*answerBufBytes+7)
	var many []PathBound
	for i := 0; i < 2000; i++ {
		x := float64(i)*1.000000001 + 1/3.0
		many = append(many, bound(fmt.Sprintf("v%04d/%d", i/3, i%3), x, x/7, x/11, 1e-7*x, -x))
	}
	cases := []struct {
		name string
		resp AnalysisResponse
	}{
		{"zero value", AnalysisResponse{}},
		{"empty lists", AnalysisResponse{Session: "s1", Deltas: []string{}, Paths: []PathBound{}}},
		{"nil paths with deltas", AnalysisResponse{Session: "s1", Seq: 3, Deltas: []string{"bag v1 16"}, Analysis: "WCNC"}},
		{"provenance", AnalysisResponse{Session: "s1", Seq: -4, Committed: true, Deltas: []string{"drop v5", "smax v1 100"},
			Analysis: "FIFO", Paths: []PathBound{bound("v1/0", 293.06, 248, 248, 40.96, 207.04)}, Provenance: prov}},
		{"float cutoffs", AnalysisResponse{Paths: []PathBound{
			bound("a/0", math.Copysign(0, -1), 0, 1e-7, 1e-6, 1e21),
			bound("a/1", 9.999999999999999e20, 1e20, 0.000001, 0.0000009999999999999999, 123456789.125),
			bound("a/2", 5e-324, math.MaxFloat64, -1e-7, -1e21, 1.5e-10),
			bound("a/3", 1.0000000000000002, 0.1, 1e300, -1e-300, 2.5e-8),
		}}},
		{"escapes", AnalysisResponse{
			Session:    `<a href="x">&amp;</a>`,
			Deltas:     []string{"\x00\x01\b\f\n\r\t\x1f\x7f", "\xff\xfe ok", "\u2028\u2029", `back\slash "quote"`, "héllo"},
			Analysis:   "FIFO\u00e9",
			Paths:      []PathBound{bound("v<1>/0", 1, 2, 3, 4, 5)},
			Provenance: &Provenance{ConfigFNV64: "&", Engines: "\u2028", Analysis: "\xc3", Workers: 0, ObsVersion: "\x7f"},
		}},
		{"longer than the buffer", AnalysisResponse{Session: long, Deltas: []string{long, long + "<"}, Analysis: long, Paths: many, Provenance: prov}},
	}
	for _, tc := range cases {
		checkAnswerBytes(t, tc.name, &tc.resp)
	}
}

// TestAnswerNonFiniteIsAnalysisError checks that a NaN or infinite
// bound is an SRV010 error body, never a 2xx: encoding/json cannot
// write one.
func TestAnswerNonFiniteIsAnalysisError(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 5; field++ {
			vals := []float64{1, 2, 3, 4, 5}
			vals[field] = f
			resp := &AnalysisResponse{Session: "s1", Analysis: "WCNC", Paths: []PathBound{
				{Path: "v1/0", NCUs: 1, TrajectoryUs: 1, BestUs: 1, MinUs: 1, JitterUs: 1},
				{Path: "v2/0", NCUs: vals[0], TrajectoryUs: vals[1], BestUs: vals[2], MinUs: vals[3], JitterUs: vals[4]},
			}}
			checkNonFinite(t, resp)
		}
	}
}

func checkNonFinite(t *testing.T, resp *AnalysisResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	writeAnswer(rec, http.StatusOK, resp)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("non-finite bound: status %d, want 500: %s", rec.Code, rec.Body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error.Code != CodeAnalysis {
		t.Fatalf("non-finite bound: body %s (%v), want an %s error", rec.Body, err, CodeAnalysis)
	}
}

// FuzzServeAnswer holds writeAnswer to encoding/json on arbitrary
// strings in every string field and arbitrary float64 bit patterns in
// every bound: the same bytes for finite bounds, an SRV010 error body
// for a NaN or an infinity.
func FuzzServeAnswer(f *testing.F) {
	f.Add("s1", "bag v1 16", "v1/0", math.Float64bits(293.06), math.Float64bits(1e-7))
	f.Add(`<&>"\`, "\u2028\x00", "\xff/0", math.Float64bits(math.Copysign(0, -1)), math.Float64bits(1e21))
	f.Add("s2", "", "v/1", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Add("s3", "drop v5", "v5/0", uint64(1), math.Float64bits(math.MaxFloat64))
	f.Fuzz(func(t *testing.T, s, d, p string, b1, b2 uint64) {
		x, y := math.Float64frombits(b1), math.Float64frombits(b2)
		resp := &AnalysisResponse{
			Session:    s,
			Seq:        len(d),
			Committed:  len(s)%2 == 0,
			Deltas:     []string{d, s},
			Analysis:   d,
			Paths:      []PathBound{{Path: p, NCUs: x, TrajectoryUs: y, BestUs: math.Min(x, y), MinUs: y / 3, JitterUs: -x}},
			Provenance: &Provenance{ConfigFNV64: p, Engines: s, Analysis: d, Workers: len(p), ObsVersion: s + d},
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			checkNonFinite(t, resp)
			return
		}
		checkAnswerBytes(t, "fuzz", resp)
	})
}

// discardWriter is a ResponseWriter that keeps nothing but the status
// and a byte count.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// syntheticAnswer is an answer of the industrial configuration's size.
func syntheticAnswer(paths int) *AnalysisResponse {
	resp := &AnalysisResponse{Session: "s1", Seq: 7, Deltas: []string{"bag v0001 64"}, Analysis: "WCNC"}
	for i := 0; i < paths; i++ {
		x := 100 + float64(i)/3
		resp.Paths = append(resp.Paths, PathBound{Path: fmt.Sprintf("v%04d/%d", i/4, i%4),
			NCUs: x * 1.3, TrajectoryUs: x * 1.1, BestUs: x * 1.1, MinUs: x / 7, JitterUs: x*1.1 - x/7})
	}
	return resp
}

// TestAnswerWriteAllocs bounds what writing a 5,004-path answer (the
// industrial configuration's) allocates: one buffer of answerBufBytes
// plus the header value, where encoding/json took about 6.6 MiB.
func TestAnswerWriteAllocs(t *testing.T) {
	resp := syntheticAnswer(5004)
	w := &discardWriter{h: http.Header{}}
	writeAnswer(w, http.StatusOK, resp)
	if want := len(indentedJSON(t, resp)); w.n != want {
		t.Fatalf("wrote %d bytes, want %d", w.n, want)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		writeAnswer(w, http.StatusOK, resp)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 64<<10 {
		t.Errorf("writing a %d-path answer allocates %d bytes, want under %d", len(resp.Paths), perOp, 64<<10)
	}
}
