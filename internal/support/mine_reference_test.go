package support_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"skinnymine/internal/core"
	"skinnymine/internal/graph"
	"skinnymine/internal/support"
	"skinnymine/internal/testutil"
)

// TestMinedSetsMatchReference diffs full core mines against the
// byte-keyed reference set. With storage uncapped a pattern's stored
// maps are all its isomorphism maps into the data, so each mined set is
// compared with a RefSet filled by independent enumeration: Support,
// GraphSupport, MNI, Truncated and the set of stored maps. Mines run at
// concurrency 1 and 8, enumerating and greedy, single graph and
// transaction database.
func TestMinedSetsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	patterns := 0
	for trial := 0; trial < 8; trial++ {
		db := []*graph.Graph{testutil.RandomConnectedGraph(rng, 14+rng.Intn(8), 2+rng.Intn(5), 3)}
		if trial%2 == 1 {
			db = append(db, testutil.RandomConnectedGraph(rng, 10+rng.Intn(6), rng.Intn(4), 3))
		}
		for _, workers := range []int{1, 8} {
			for _, greedy := range []bool{false, true} {
				opt := core.DefaultOptions(2, 2+trial%2, 1+trial%3%2)
				opt.GreedyGrow = greedy
				opt.Concurrency = workers
				res, err := core.MineDB(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range res.Patterns {
					patterns++
					ref := support.NewRefSet(p.G.Edges(), 0)
					for gi, g := range db {
						graph.EnumerateEmbeddings(p.G, g, func(m []graph.V) bool {
							ref.Add(support.Embedding{GID: int32(gi), Map: m})
							return true
						})
					}
					if d := diffAsSets(p.Embs, ref); d != "" {
						t.Fatalf("trial %d, %d workers, greedy %v, %v: %s", trial, workers, greedy, p, d)
					}
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("no patterns mined; the test is vacuous")
	}
}

// diffAsSets is DiffCounts plus the stored maps compared as sets:
// growth derives maps in a different order than enumeration finds them.
func diffAsSets(s *support.Set, ref *support.RefSet) string {
	if d := support.DiffCounts(s, ref); d != "" {
		return d
	}
	if a, b := mapKeys(s.Len(), s.At), mapKeys(ref.Len(), ref.At); !slices.Equal(a, b) {
		return fmt.Sprintf("stored maps %v, reference %v", a, b)
	}
	return ""
}

func mapKeys(n int, at func(int) support.Embedding) []string {
	keys := make([]string, n)
	for i := range keys {
		e := at(i)
		keys[i] = fmt.Sprint(e.GID, e.Map)
	}
	slices.Sort(keys)
	return keys
}

// TestCappedMinesMatchParent pins capped mines (MaxEmbeddings > 0),
// where a pattern's support counts the subgraphs grown from its
// parent's stored sample and no enumeration can reproduce it. The
// digests cover every pattern's canonical code, Support, GraphSupport,
// MNI, Truncated and stored maps in order, plus the Stats counters.
// They were first taken from the byte-keyed implementation the
// hash-identity Set replaced, so they hold the two to identical output;
// they were re-taken when greedy growth stopped retrying Theorem 1–2
// rejects, after the same digests without ExtensionsTried and
// ConstraintRejects[0] were shown equal before and after that change.
func TestCappedMinesMatchParent(t *testing.T) {
	want := map[int]string{
		1:  "4334981ab4d7bb2fe99a1b220bde2080987e5fe20cddbb8e7d2d2781d4f270af",
		3:  "89389a2c0f613eef950931775e78c0dbe674fc0de8a8f84d97453205f689c0d0",
		10: "cf18fae347675d9e7b58c7bf08889cf4aa5b217276d3ce89e8352c2151d6646d",
	}
	for _, limit := range []int{1, 3, 10} {
		rng := rand.New(rand.NewSource(29))
		h := sha256.New()
		for trial := 0; trial < 6; trial++ {
			db := []*graph.Graph{testutil.RandomConnectedGraph(rng, 16+rng.Intn(8), 3+rng.Intn(5), 3)}
			if trial%2 == 1 {
				db = append(db, testutil.RandomConnectedGraph(rng, 12+rng.Intn(6), rng.Intn(4), 3))
			}
			var digests [2]string
			for i, workers := range []int{1, 8} {
				opt := core.DefaultOptions(2, 2+trial%2, 1+trial%3%2)
				opt.GreedyGrow = trial%3 == 2
				opt.MaxEmbeddings = limit
				opt.Concurrency = workers
				res, err := core.MineDB(db, opt)
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = mineDigest(res)
			}
			if digests[0] != digests[1] {
				t.Fatalf("limit %d, trial %d: concurrency 1 and 8 mined different sets", limit, trial)
			}
			h.Write([]byte(digests[0]))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[limit] {
			t.Errorf("limit %d: digest %s, want %s", limit, got, want[limit])
		}
	}
}

func mineDigest(res *core.Result) string {
	var b strings.Builder
	st := res.Stats
	fmt.Fprintln(&b, st.PathsMined, st.ExtensionsTried, st.Generated, st.Duplicates, st.ConstraintRejects,
		st.FrequencyRejects, st.CheckMismatches, st.OutputInvalid)
	for _, p := range res.Patterns {
		s := p.Embs
		fmt.Fprintf(&b, "%q %d %d %d %v %d\n", p.CodeKey(), s.Support(), s.GraphSupport(), s.MNI(), s.Truncated(), s.Len())
		for i := 0; i < s.Len(); i++ {
			fmt.Fprintln(&b, s.At(i))
		}
	}
	return b.String()
}
