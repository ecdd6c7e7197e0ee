package conformance

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"afdx/internal/afdx"
	"afdx/internal/serve"
)

// checkServed asserts the served-parity invariant: a seeded delta
// script played against a live afdx-serve instance over real HTTP is
// answered with bounds exactly `==` cold engine runs on the replayed
// configurations, at worker counts 1 and ParityWorkers. The script is
// a pure function of (configuration, SimSeed), so a violation here
// replays like every other oracle finding.
//
// The session round and each cold anchor (serve.Script.VerifyCold) are
// both core.Certify calls, one WCNC run shared by both engines;
// this tier adds the session manager, the HTTP surface, and the JSON
// float64 round-trip on top, and the equality stays exact.
func (o *Oracle) checkServed(ctx context.Context, net *afdx.Network) ([]Violation, error) {
	workers := o.ParityWorkers
	if workers <= 0 {
		workers = 4
	}
	srv := serve.New(serve.Options{
		Mode:           afdx.Strict,
		MaxSessions:    2,
		RequestTimeout: 2 * time.Minute,
	})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(dctx) //nolint:errcheck // teardown
		ts.Close()
	}()

	script, err := serve.SeededScript(net, o.SimSeed, 5)
	if err != nil {
		return nil, fmt.Errorf("conformance: served script: %w", err)
	}
	if _, err := script.RunHTTP(ts.Client(), ts.URL, 1); err != nil {
		return nil, fmt.Errorf("conformance: served replay: %w", err)
	}
	var vs []Violation
	for _, par := range []int{1, workers} {
		mm, err := script.VerifyCold(ctx, afdx.Strict, par)
		if err != nil {
			return nil, fmt.Errorf("conformance: served cold anchor (parallel %d): %w", par, err)
		}
		for _, m := range mm {
			// The "(path count)" mismatch names no path: it keeps the
			// zero PathID.
			var pid afdx.PathID
			if m.Path != "(path count)" {
				pid, _ = afdx.ParsePathArg(m.Path)
			}
			vs = append(vs, Violation{InvServedParity, pid, m.Got, m.Want,
				fmt.Sprintf("served %s != cold anchor at parallel %d (round %d)", m.Field, par, m.Seq)})
		}
	}
	return vs, nil
}
