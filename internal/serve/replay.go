package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"

	"afdx/internal/afdx"
	"afdx/internal/core"
	"afdx/internal/incremental"
)

// This file is the served-conformance harness: record one session's
// traffic (the uploaded configuration plus every delta round and the
// bounds the server answered), then replay the same state evolution
// through cold engine runs — no server, no session — and require exact
// `==` on every path bound: the wire (JSON round-trip) and the session
// manager must both be invisible in the numbers.

// Step is one delta round of a recorded script: the ParseDelta-format
// batch, whether it was committed (/apply) or peeked (/whatif), the
// ?analysis= name sent with it ("" sends none; WCNC and FIFO get the
// same bound), and — after RunHTTP — the bounds the server answered.
type Step struct {
	Commit   bool              `json:"commit"`
	Deltas   []string          `json:"deltas"`
	Analysis string            `json:"analysis,omitempty"`
	Response *AnalysisResponse `json:"response,omitempty"`
}

// Script is one session's recorded traffic. With Provenance set,
// RunHTTP requests the per-bound provenance record on every round —
// the conformance tier runs with it on, proving the record is
// observation-only.
type Script struct {
	Net        *afdx.Network     `json:"net"`
	Base       *AnalysisResponse `json:"base,omitempty"`
	Steps      []Step            `json:"steps"`
	Provenance bool              `json:"provenance,omitempty"`
}

// SeededScript draws a deterministic delta script for a configuration:
// n steps of BAG doubling, s_max halving, and (rarely) VL drops, each
// drawn against the state all *committed* prior steps produce, with
// peeks and commits interleaved and each step's ?analysis= name drawn
// uniformly from WCNC and FIFO — so one replay exercises both accepted
// names on one session. The script is a pure function of (net,
// seed, n), so the check.sh smoke and the conformance tier replay the
// exact same traffic.
func SeededScript(net *afdx.Network, seed int64, n int) (*Script, error) {
	rng := rand.New(rand.NewSource(seed))
	cur := net.Clone()
	sc := &Script{Net: net.Clone()}
	for i := 0; i < n; i++ {
		cmd := drawDelta(rng, cur)
		if cmd == "" {
			break
		}
		commit := rng.Intn(2) == 0
		analysis := "WCNC"
		if rng.Intn(2) == 0 {
			analysis = "FIFO"
		}
		if commit {
			d, err := incremental.ParseDelta(cmd)
			if err != nil {
				return nil, fmt.Errorf("serve: seeded script: %w", err)
			}
			if err := incremental.Apply(cur, d); err != nil {
				return nil, fmt.Errorf("serve: seeded script %q: %w", cmd, err)
			}
		}
		sc.Steps = append(sc.Steps, Step{Commit: commit, Deltas: []string{cmd}, Analysis: analysis})
	}
	return sc, nil
}

// drawDelta draws one always-feasible delta command against the current
// state, or "" when the configuration has nothing left to tweak.
// Tightening moves only (larger BAG, smaller s_max, fewer VLs), so a
// lint-clean starting configuration stays feasible for the whole script.
func drawDelta(rng *rand.Rand, cur *afdx.Network) string {
	for attempt := 0; attempt < 8; attempt++ {
		switch rng.Intn(3) {
		case 0: // double one BAG
			if v := pickVL(rng, cur, func(v *afdx.VirtualLink) bool { return v.BAGMs*2 <= afdx.MaxBAGMs }); v != nil {
				return fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2)
			}
		case 1: // halve one s_max
			if v := pickVL(rng, cur, func(v *afdx.VirtualLink) bool { return v.SMaxBytes/2 >= afdx.MinFrameBytes }); v != nil {
				return fmt.Sprintf("smax %s %d", v.ID, v.SMaxBytes/2)
			}
		case 2: // drop one VL, keeping at least two
			if len(cur.VLs) > 2 && rng.Intn(4) == 0 {
				return fmt.Sprintf("drop %s", cur.VLs[rng.Intn(len(cur.VLs))].ID)
			}
		}
	}
	return ""
}

func pickVL(rng *rand.Rand, cur *afdx.Network, ok func(*afdx.VirtualLink) bool) *afdx.VirtualLink {
	var cands []*afdx.VirtualLink
	for _, v := range cur.VLs {
		if ok(v) {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	return cands[rng.Intn(len(cands))]
}

// RunHTTP drives a script against a live server, recording every answer
// into the script: upload (with the session's worker count), then each
// step in order. Returns the session ID. The caller owns the server's
// lifecycle; the session is left open (covering later eviction tests).
func (sc *Script) RunHTTP(client *http.Client, baseURL string, parallel int) (string, error) {
	cfg, err := json.Marshal(sc.Net)
	if err != nil {
		return "", fmt.Errorf("serve: replay: %w", err)
	}
	prov := ""
	if sc.Provenance {
		prov = "&provenance=1"
	}
	createURL := fmt.Sprintf("%s/v1/sessions?parallel=%d%s", baseURL, parallel, prov)
	var base AnalysisResponse
	if err := postJSON(client, createURL, cfg, &base); err != nil {
		return "", fmt.Errorf("serve: replay upload: %w", err)
	}
	sc.Base = &base
	for i := range sc.Steps {
		st := &sc.Steps[i]
		verb := "whatif"
		if st.Commit {
			verb = "apply"
		}
		body, err := json.Marshal(DeltaRequest{Deltas: st.Deltas})
		if err != nil {
			return "", fmt.Errorf("serve: replay: %w", err)
		}
		var resp AnalysisResponse
		q := make(url.Values)
		if sc.Provenance {
			q.Set("provenance", "1")
		}
		if st.Analysis != "" {
			q.Set("analysis", st.Analysis)
		}
		stepURL := fmt.Sprintf("%s/v1/sessions/%s/%s", baseURL, base.Session, verb)
		if len(q) > 0 {
			stepURL += "?" + q.Encode()
		}
		if err := postJSON(client, stepURL, body, &resp); err != nil {
			return "", fmt.Errorf("serve: replay step %d %v: %w", i, st.Deltas, err)
		}
		st.Response = &resp
	}
	return base.Session, nil
}

// postJSON posts a JSON body and decodes a 2xx JSON answer, rendering
// non-2xx error bodies into the returned error.
func postJSON(client *http.Client, url string, body []byte, out any) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// Mismatch is one served bound that differs from its cold anchor.
type Mismatch struct {
	Seq   int     `json:"seq"` // recorded round (base = round 0's seq)
	Path  string  `json:"path"`
	Field string  `json:"field"`
	Got   float64 `json:"got"`  // served
	Want  float64 `json:"want"` // cold anchor
}

func (m Mismatch) String() string {
	return fmt.Sprintf("round %d %s %s: served %v, cold %v", m.Seq, m.Path, m.Field, m.Got, m.Want)
}

// VerifyCold replays a recorded script through cold anchors: for every
// recorded response it reconstructs the session's configuration at that
// round (committed deltas accumulate, peeked deltas apply to a scratch
// clone), runs core.Certify cold at the given worker count, and
// compares every path bound with exact `==`. An empty slice means the
// server was bit-faithful; any tolerance here would hide a session or
// codec bug, so there is none.
func (sc *Script) VerifyCold(ctx context.Context, mode afdx.ValidationMode, parallel int) ([]Mismatch, error) {
	var out []Mismatch
	cur := sc.Net.Clone()
	if sc.Base != nil {
		ms, err := diffCold(ctx, sc.Base, cur, mode, parallel)
		if err != nil {
			return nil, fmt.Errorf("serve: verify base: %w", err)
		}
		out = append(out, ms...)
	}
	for i, st := range sc.Steps {
		ds, err := parseDeltas(st.Deltas)
		if err != nil {
			return nil, fmt.Errorf("serve: verify step %d: %w", i, err)
		}
		target := cur
		if !st.Commit {
			target = cur.Clone()
		}
		if err := incremental.Apply(target, ds...); err != nil {
			return nil, fmt.Errorf("serve: verify step %d %v: %w", i, st.Deltas, err)
		}
		if st.Response == nil {
			continue
		}
		ms, err := diffCold(ctx, st.Response, target, mode, parallel)
		if err != nil {
			return nil, fmt.Errorf("serve: verify step %d %v: %w", i, st.Deltas, err)
		}
		out = append(out, ms...)
	}
	return out, nil
}

// diffCold compares one recorded response against a cold core.Certify
// run on the reconstructed configuration. Every round anchors against
// the same certified run, whatever ?analysis= name it echoes: the
// engine computes one bound for WCNC and FIFO.
func diffCold(ctx context.Context, resp *AnalysisResponse, net *afdx.Network, mode afdx.ValidationMode, parallel int) ([]Mismatch, error) {
	pg, err := afdx.BuildPortGraph(net, mode)
	if err != nil {
		return nil, err
	}
	cmp, err := core.Certify(ctx, pg, parallel)
	if err != nil {
		return nil, err
	}
	want := pathBounds(cmp)
	var out []Mismatch
	if len(want) != len(resp.Paths) {
		out = append(out, Mismatch{Seq: resp.Seq, Path: "(path count)", Field: "len",
			Got: float64(len(resp.Paths)), Want: float64(len(want))})
		return out, nil
	}
	for i, w := range want {
		g := resp.Paths[i]
		if g.Path != w.Path {
			out = append(out, Mismatch{Seq: resp.Seq, Path: g.Path, Field: "path order",
				Got: float64(i), Want: float64(i)})
			continue
		}
		for _, f := range [...]struct {
			name      string
			got, want float64
		}{
			{"ncUs", g.NCUs, w.NCUs},
			{"trajectoryUs", g.TrajectoryUs, w.TrajectoryUs},
			{"bestUs", g.BestUs, w.BestUs},
			{"minUs", g.MinUs, w.MinUs},
			{"jitterUs", g.JitterUs, w.JitterUs},
		} {
			if f.got != f.want {
				out = append(out, Mismatch{Seq: resp.Seq, Path: w.Path, Field: f.name, Got: f.got, Want: f.want})
			}
		}
	}
	return out, nil
}
