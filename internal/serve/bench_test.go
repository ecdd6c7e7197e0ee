package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/incremental"
)

// BenchmarkServedRound splits one served what-if round on the
// industrial configuration (configgen seed 1, 5,004 paths) into its
// stages, each reporting its allocations:
//
//	candidate  clone the configuration, apply the delta, build the port graph
//	certify    core.Certify on that graph
//	answer     pathBounds plus writeAnswer to a discarding ResponseWriter
//	handler    one whole /whatif through Handler(), on a DefaultOptions server
//
// The peeked delta doubles the BAG of the first VL that allows it. The
// engines run on two workers, as in the benchmark ledger's served
// workloads.
func BenchmarkServedRound(b *testing.B) {
	const workers = 2
	net, err := configgen.Generate(configgen.DefaultSpec(1))
	if err != nil {
		b.Fatal(err)
	}
	var cmd string
	for _, vl := range net.VLs {
		if vl.BAGMs*2 <= afdx.MaxBAGMs {
			cmd = fmt.Sprintf("bag %s %g", vl.ID, vl.BAGMs*2)
			break
		}
	}
	d, err := incremental.ParseDelta(cmd)
	if err != nil {
		b.Fatal(err)
	}
	candidate := func(b *testing.B) *afdx.PortGraph {
		cand := net.Clone()
		if err := incremental.Apply(cand, d); err != nil {
			b.Fatal(err)
		}
		pg, err := afdx.BuildPortGraph(cand, afdx.Strict)
		if err != nil {
			b.Fatal(err)
		}
		return pg
	}
	ctx := context.Background()
	pg := candidate(b)
	cmp, err := core.Certify(ctx, pg, workers)
	if err != nil {
		b.Fatal(err)
	}
	if n := len(cmp.PerPath); n != 5004 {
		b.Fatalf("certified %d paths, want the 5004 of DefaultSpec(1)", n)
	}

	b.Run("candidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			candidate(b)
		}
	})
	b.Run("certify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Certify(ctx, pg, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("answer", func(b *testing.B) {
		b.ReportAllocs()
		w := &discardWriter{h: http.Header{}}
		for i := 0; i < b.N; i++ {
			resp := &AnalysisResponse{Session: "s1", Deltas: []string{cmd}, Analysis: "WCNC", Paths: pathBounds(cmp)}
			writeAnswer(w, http.StatusOK, resp)
		}
	})
	b.Run("handler", func(b *testing.B) {
		opts := DefaultOptions()
		opts.Parallel = workers
		s := New(opts)
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			s.Drain(ctx) //nolint:errcheck // teardown
		})
		h := s.Handler()
		var cfg bytes.Buffer
		if err := net.WriteJSON(&cfg); err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", &cfg))
		var created AnalysisResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &created); rec.Code != http.StatusCreated || err != nil {
			b.Fatalf("session upload: status %d, %v", rec.Code, err)
		}
		target := "/v1/sessions/" + created.Session + "/whatif"
		body := `{"deltas":["` + cmd + `"]}`
		w := &discardWriter{h: http.Header{}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
			if w.status != http.StatusOK {
				b.Fatalf("/whatif: status %d", w.status)
			}
		}
	})
}
