package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
	"afdx/internal/core"
	"afdx/internal/incremental"
	"afdx/internal/netcalc"
	"afdx/internal/trajectory"
)

// BenchmarkServedRound splits one served what-if round on the
// industrial configuration (configgen seed 1, 5,004 paths) into its
// stages, each reporting its allocations:
//
//	candidate   clone the configuration, apply the delta, build the port graph
//	wcnc        netcalc.AnalyzeCtx on that graph, certify's first half
//	trajectory  trajectory.AnalyzeWithNCCtx on a precomputed WCNC result, its second
//	certify     core.Certify on that graph: both engines and core.Combine
//	answer      pathBounds plus writeAnswer to a discarding ResponseWriter
//	handler     one whole /whatif through Handler(), on a DefaultOptions server
//	watched     handler, with one subscriber on the session's SSE hub writing every event
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
	b.Run("wcnc", func(b *testing.B) {
		opts := netcalc.DefaultOptions()
		opts.Parallel = workers
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := netcalc.AnalyzeCtx(ctx, pg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("trajectory", func(b *testing.B) {
		opts := trajectory.DefaultOptions()
		opts.Parallel = workers
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trajectory.AnalyzeWithNCCtx(ctx, pg, opts, cmp.NC); err != nil {
				b.Fatal(err)
			}
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
	// open uploads net to a DefaultOptions server. It returns the
	// session's event hub and a loop of b.N /whatif rounds on it.
	open := func(b *testing.B) (*hub, func()) {
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
		s.mgr.mu.Lock()
		hb := s.mgr.sessions[created.Session].hub
		s.mgr.mu.Unlock()
		target := "/v1/sessions/" + created.Session + "/whatif"
		body := `{"deltas":["` + cmd + `"]}`
		return hb, func() {
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
				if w.status != http.StatusOK {
					b.Fatalf("/whatif: status %d", w.status)
				}
			}
			b.StopTimer()
		}
	}
	b.Run("handler", func(b *testing.B) {
		_, rounds := open(b)
		rounds()
	})
	b.Run("watched", func(b *testing.B) {
		hb, rounds := open(b)
		// The subscriber writes every event to a discarding stream, as
		// serveSSE writes it to its client.
		ch, cancel := hb.subscribe()
		written := make(chan int)
		go func() {
			n := 0
			for e := range ch {
				if e.writeTo(io.Discard) == nil {
					n++
				}
			}
			written <- n
		}()
		rounds()
		cancel()
		if n := <-written; n == 0 {
			b.Fatal("the subscriber wrote no event")
		}
	})
}
