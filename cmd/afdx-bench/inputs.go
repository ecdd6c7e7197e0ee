package main

import (
	"fmt"
	"math/rand"

	"afdx/internal/afdx"
	"afdx/internal/configgen"
)

// scale fixes the configurations each workload runs on. The base
// configurations are pinned configgen draws, not functions of -seed:
// configgen's path count swings by ±11 % between seeds 1 and 10, which
// would swamp the benchmark's regression bounds with input size. The
// -seed draws the traffic instead — the peek question order and the
// certify cycling order.
type scale struct {
	// certify is the certify-cold family, cycled op by op.
	certify func() ([]*afdx.Network, error)
	// whatif is the configuration the whatif-* sessions open on.
	whatif func() (*afdx.Network, error)
}

// industrialScale is the benchmark proper: eight industrial-size
// configurations (configgen seeds 1–8, ~900 VLs and ~5,000 paths
// each) for certify-cold, and the seed-1 industrial configuration (903
// VLs, 5,004 paths — the one every earlier measurement used) for the
// what-if sessions.
func industrialScale() scale {
	return scale{
		certify: func() ([]*afdx.Network, error) {
			var nets []*afdx.Network
			for s := int64(1); s <= 8; s++ {
				net, err := configgen.Generate(configgen.DefaultSpec(s))
				if err != nil {
					return nil, err
				}
				nets = append(nets, net)
			}
			return nets, nil
		},
		whatif: func() (*afdx.Network, error) { return configgen.Generate(configgen.DefaultSpec(1)) },
	}
}

// questions returns the what-if question stream for base: every
// single-delta tightening of it — a BAG doubled where the doubled BAG
// is legal, an s_max halved where the half is still a legal frame — in
// a seeded order. Each peek asks the next question, so no question
// repeats until the stream is exhausted and every peek is a fresh cone
// for the caches.
func questions(base *afdx.Network, seed int64) [][]string {
	var qs [][]string
	for _, v := range base.VLs {
		if v.BAGMs*2 <= afdx.MaxBAGMs {
			qs = append(qs, []string{fmt.Sprintf("bag %s %g", v.ID, v.BAGMs*2)})
		}
		if v.SMaxBytes/2 >= afdx.MinFrameBytes {
			qs = append(qs, []string{fmt.Sprintf("smax %s %d", v.ID, v.SMaxBytes/2)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}
