package server

// Shared-plan batch execution, the multi-query optimizer's second
// layer. A /v1/batch often carries a family of near-identical requests
// — same measure and σ, varying only in band, skinniness bound, or
// anti-monotone constraint conjuncts. Mining them independently pays
// Stage I once per member; mining the family's weakest common superset
// (skinnymine.FamilyOptions) once and forking each member out of it by
// post-filtering (skinnymine.Morph) pays Stage I once per FAMILY. The
// fork is exact — CanMorph only groups members whose containment in
// the family is provable — so the optimization changes the plan, never
// the bytes; equiv_test pins that against independent fresh mining.

import (
	"net/http"
	"sort"
	"time"

	"skinnymine"
)

// unit is one distinct canonical request within a batch: the shared
// work every batch entry with the same cache key is answered from.
type unit struct {
	key    string
	first  int // index of the first batch entry with this key
	opt    skinnymine.Options
	p      produced
	source string
	dur    time.Duration // wall clock of this unit's serve (guards included)
	err    error
}

// familyPlan is one executable query family: the weakest-superset
// options to mine once, the cache key that mine lives under, and the
// member units forked out of it. carrier, when non-nil, is the member
// whose own canonical key IS the family key — its serve and the shared
// mine are the same work, so it leads the run and keeps ordinary
// hit/miss accounting; without a carrier the family mine is synthetic
// (runs, but charged to no single request).
type familyPlan struct {
	fam     skinnymine.Options
	famKey  string
	members []*unit
	carrier *unit
}

// planFamilies groups a batch's unique units into executable query
// families. Units are eligible when their options are pure
// enumerations (no greedy/closed/budget modes — the same requests
// morphing accepts); eligible units sharing a support measure form a
// candidate group, the group's weakest common superset comes from
// FamilyOptions, and only members whose containment in that superset
// is provable (CanMorph) fork from it — the rest run independently. A
// family needs at least two forkable members to be worth a shared
// mine. Returns the plans plus the set of unit keys they own.
func planFamilies(units map[string]*unit, order []string) ([]*familyPlan, map[string]bool) {
	groups := make(map[string][]*unit)
	for _, key := range order {
		u := units[key]
		if u.opt.MaximalOnly || u.opt.ClosedOnly || u.opt.MaxPatterns > 0 {
			continue
		}
		g := "embeddings"
		if u.opt.Measure == skinnymine.GraphCount {
			g = "graphs"
		}
		groups[g] = append(groups[g], u)
	}
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names) // deterministic plan order regardless of map iteration
	var plans []*familyPlan
	owned := make(map[string]bool)
	for _, g := range names {
		group := groups[g]
		if len(group) < 2 {
			continue
		}
		opts := make([]skinnymine.Options, len(group))
		for i, u := range group {
			opts[i] = u.opt
		}
		fam, ok := skinnymine.FamilyOptions(opts)
		if !ok {
			continue
		}
		fp := &familyPlan{fam: fam, famKey: cacheKey(fam)}
		for _, u := range group {
			if !skinnymine.CanMorph(fam, u.opt) {
				continue
			}
			fp.members = append(fp.members, u)
			if u.key == fp.famKey {
				fp.carrier = u
			}
		}
		if len(fp.members) < 2 {
			continue
		}
		for _, u := range fp.members {
			owned[u.key] = true
		}
		plans = append(plans, fp)
	}
	return plans, owned
}

// runUnit serves one unit through the full guard stack — cache,
// morph scan, coalescing, admission — exactly as /v1/mine would.
func (s *Server) runUnit(r *http.Request, u *unit) {
	t0 := time.Now()
	u.p, u.source, u.err = s.execute(r, u.key, true, &u.opt, s.mineProduce("/v1/batch", u.opt))
	u.dur = time.Since(t0)
}

// runFamily executes one family plan: members already cached serve as
// plain hits; the rest share one mine of the family superset and fork
// from its decoded result. The shared mine rides the ordinary guard
// stack under the family key (so it coalesces with — and its cached
// result is reusable by — equivalent single requests). Forked members
// are serialized, cached under their own keys, and counted as
// family_shared: answered without a run of their own. Any failure —
// the shared mine erroring, a fork declining — falls back to
// independent execution for the affected members, so the optimizer can
// only ever cost what the unoptimized path would have.
func (s *Server) runFamily(r *http.Request, fp *familyPlan) {
	t0 := time.Now()
	var pending []*unit
	for _, u := range fp.members {
		if hit, ok := s.cache.get(u.key); ok {
			s.metrics.mine.cacheHits.Add(1)
			s.recordServed(r, "hit", hit.traceID)
			u.p, u.source, u.dur = hit, "hit", time.Since(t0)
			continue
		}
		pending = append(pending, u)
	}
	if len(pending) == 0 {
		return
	}
	if len(pending) == 1 {
		// A lone uncached member: an independent serve (which may still
		// morph off the LRU) beats mining the whole family for it.
		s.runUnit(r, pending[0])
		return
	}
	// The shared mine runs untracked: the carrier's ledger entry is
	// credited manually below so the family mine is charged to exactly
	// one request when a member anchors it, and to none when synthetic.
	famP, famSource, err := s.execute(r, fp.famKey, false, nil, s.mineProduce("/v1/batch", fp.fam))
	if err != nil {
		// Shared mine failed: every pending member falls back to the
		// independent path, which does its own accounting.
		for _, u := range pending {
			s.runUnit(r, u)
		}
		return
	}
	for _, u := range pending {
		if u == fp.carrier {
			switch famSource {
			case "hit": // cached by a concurrent request after the member scan
				s.metrics.mine.cacheHits.Add(1)
				s.recordServed(r, "hit", famP.traceID)
			case "coalesced":
				s.metrics.mine.coalesced.Add(1)
				s.recordServed(r, "coalesced", famP.traceID)
			default: // "miss": the carrier led the family's mining run
				s.metrics.mine.cacheMisses.Add(1)
			}
			u.p, u.source, u.dur = famP, famSource, time.Since(t0)
			continue
		}
		up, ok := s.fork(&famP, u.key, u.opt)
		if !ok {
			s.runUnit(r, u)
			continue
		}
		s.metrics.mine.familyShared.Add(1)
		s.recordServed(r, "family_shared", famP.traceID)
		u.p, u.source, u.dur = up, "family_shared", time.Since(t0)
	}
}
