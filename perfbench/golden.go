package main

// Golden digests of the unpermuted base inputs (copy 0 of each library
// workload), so they hold for every seed. A change that alters mined
// output changes them; re-record them only with a change that is meant
// to alter the output.

// goldenMineDigest is patternsDigest of mine-greedy's base copy.
const goldenMineDigest = "54805ed8699080988e7cbd24e99089a5"

// goldenBackbones is the digest of index-build's base-database
// MinimalBackbones(l) output (JSON), per level.
var goldenBackbones = map[int]string{
	1:  "fe1240090a927d3ae764a68fc1e827df",
	2:  "50bb358d901733600a2ac72ce6e93c14",
	4:  "c3ad51e7393c5411aa59dfa490cdfd4b",
	8:  "0f8fd270ff03e6df008bdc2a5d562483",
	12: "10911e44414219985df6d0d313d0e473",
}
