package trajectory

// The bridge to the external test package (oracle_test.go): the
// configuration builders and the result digest of this package's
// tests. Nothing of the engine is exported here, so the evaluator
// there reaches the engine through its API only.
var (
	SlowLastHop  = slowLastHop
	FastCore     = fastCore
	FastCoreSeed = fastCoreSeed
	PathDigest   = pathDigest
)
