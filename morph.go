package skinnymine

import (
	"fmt"

	"skinnymine/internal/constraint"
)

// Pattern morphing: answering one request from another request's
// result. Because mining is complete enumeration over the band, a
// result mined under a provably weaker request contains everything a
// tighter request would find — so the tighter answer is a pure
// post-filter (plus topk re-selection) over the cached patterns, no
// search at all. CanMorph decides when the containment is provable,
// Morph performs the rewrite, and FamilyOptions builds the weakest
// common superset of a query family — the single plan a shared-plan
// batch executes once and forks per member. The serving daemon's
// morphing cache and /v1/batch family execution are built on these
// three; the pinned invariant throughout is that a morphed result is
// byte-identical to mining the tighter request fresh.

// lengthSet returns the set of canonical diameter lengths the request
// mines: SeedLengths when restricted, the whole band otherwise.
func lengthSet(o Options) map[int]bool {
	s := make(map[int]bool)
	if len(o.SeedLengths) > 0 {
		for _, l := range o.SeedLengths {
			s[l] = true
		}
		return s
	}
	lo := o.Length
	if o.MinLength > 0 {
		lo = o.MinLength
	}
	for l := lo; l <= o.Length; l++ {
		s[l] = true
	}
	return s
}

// CanMorph reports that to's result is provably the post-filtered form
// of from's: same measure and support floor, with to tightening from
// only along anti-monotone dimensions — a length set contained in
// from's, a skinniness bound no looser, and a Where that keeps every
// conjunct of from's while adding only anti-monotone ones
// (constraint.Subsumes). Requests that are greedy (MaximalOnly),
// closed, or budgeted (MaxPatterns) never morph: their outputs are not
// pure filters of the enumeration. from must carry no topk clause — a
// truncated result proves nothing — while to may. False is always
// conservative: it declines to prove, it never lies.
//
// The support floor σ must match exactly, even though a higher floor
// only shrinks the result set. Stage I's path-doubling join thresholds
// every intermediate level at σ, and a path's distinct-subgraph count
// is not anti-monotone across doubling (many long paths can share one
// rare half), so mining fresh at a higher σ can drop a pattern whose
// own count still clears it — containment holds, byte-identity does
// not, and byte-identity is the invariant morphing is pinned to. To
// tighten support morphably, say it in the constraint instead: a
// `support>=N` conjunct under GraphCount classifies anti-monotone and
// rides the pinned pushdown equivalence.
func CanMorph(from, to Options) bool {
	if from.stashWhere() != nil || to.stashWhere() != nil {
		return false
	}
	if from.Validate() != nil || to.Validate() != nil {
		return false
	}
	if from.MaximalOnly || to.MaximalOnly || from.ClosedOnly || to.ClosedOnly {
		return false
	}
	if from.MaxPatterns > 0 || to.MaxPatterns > 0 {
		return false
	}
	if from.Measure != to.Measure {
		return false
	}
	if from.Support != to.Support {
		return false
	}
	fromLens := lengthSet(from)
	for l := range lengthSet(to) {
		if !fromLens[l] {
			return false
		}
	}
	// Negative δ is unbounded: it morphs to any bound, and only an
	// unbounded from covers an unbounded to.
	if from.Delta >= 0 && (to.Delta < 0 || to.Delta > from.Delta) {
		return false
	}
	fc, _ := from.parsedWhere()
	tc, _ := to.parsedWhere()
	return constraint.Subsumes(fc, tc, to.Measure == GraphCount)
}

// Morph answers the to request from res, a result mined under from,
// without searching: it keeps the cached patterns inside to's length
// set, skinniness bound and Where expression (judged against the same
// attribute view a fresh mine's output filter would see, support
// counted under to's measure), then applies to's topk clause. The
// output is byte-identical to mining to fresh — the serving daemon's
// equivalence harness pins exactly that — and carries zero Stats,
// because no search ran. Errors when CanMorph(from, to) does not hold.
func Morph(res *Result, from, to Options) (*Result, error) {
	if err := from.stashWhere(); err != nil {
		return nil, err
	}
	if err := to.stashWhere(); err != nil {
		return nil, err
	}
	if !CanMorph(from, to) {
		return nil, fmt.Errorf("skinnymine: cannot morph: target is not a provable restriction of the source request")
	}
	out := &Result{Patterns: make([]*Pattern, 0, len(res.Patterns))}
	if len(res.Patterns) == 0 {
		return out, nil
	}
	lens := lengthSet(to)
	m := to.measure()
	c, _ := to.parsedWhere()
	// The same binding and attribute view lower installs as the mining
	// output filter, so a morph judges each pattern against the facts a
	// fresh mine would.
	var b *constraint.Bound
	if c != nil && c.Expr != nil {
		b = c.Bind(res.Patterns[0].lt, to.Measure == GraphCount)
	}
	for _, p := range res.Patterns {
		if !lens[int(p.p.DiamLen)] {
			continue
		}
		if to.Delta >= 0 && int(p.p.MaxLevel()) > to.Delta {
			continue
		}
		if b != nil && !b.Accept(patternAttrs(p.p.G, p.p.MaxLevel(), p.p.Embs.Count(m))) {
			continue
		}
		out.Patterns = append(out.Patterns, p)
	}
	if c != nil && c.TopK != nil {
		out.Patterns = applyTopK(out.Patterns, c.TopK, m)
	}
	return out, nil
}

// FamilyOptions builds the weakest common superset of a query family:
// the widest skinniness bound, the union of the members' length sets
// (SeedLengths when the union has gaps, so the shared mine still skips
// lengths no member wants), and the Where conjuncts every member
// shares. Mining the family once and morphing each member out of it
// costs one Stage I pass instead of K — the shared-plan batch
// execution in the serving daemon.
//
// ok is false when the members are structurally unmixable: none given,
// one fails validation, one is greedy/closed/budgeted, or measures or
// support floors differ (σ must match exactly — see CanMorph; a
// support floor a member wants tighter belongs in its Where as a
// `support>=N` conjunct). ok true means the returned options are a
// sound superset of every member; whether a given member can then be
// forked out of it is still CanMorph's call (a member whose private
// conjuncts are not all anti-monotone cannot), and the family stays a
// valid superset for the members that can.
func FamilyOptions(members []Options) (Options, bool) {
	if len(members) == 0 {
		return Options{}, false
	}
	for i := range members {
		if members[i].stashWhere() != nil || members[i].Validate() != nil {
			return Options{}, false
		}
		m := &members[i]
		if m.MaximalOnly || m.ClosedOnly || m.MaxPatterns > 0 {
			return Options{}, false
		}
		if m.Measure != members[0].Measure || m.Support != members[0].Support {
			return Options{}, false
		}
	}
	delta := members[0].Delta
	union := lengthSet(members[0])
	for _, m := range members[1:] {
		if delta >= 0 && (m.Delta < 0 || m.Delta > delta) {
			delta = m.Delta
		}
		for l := range lengthSet(m) {
			union[l] = true
		}
	}
	sigma := members[0].Support
	lo, hi := 0, 0
	for l := range union {
		if lo == 0 || l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	fam := Options{Support: sigma, Length: hi, Delta: delta, Measure: members[0].Measure}
	if lo < hi {
		fam.MinLength = lo
	}
	if len(union) != hi-lo+1 {
		for l := lo; l <= hi; l++ {
			if union[l] {
				fam.SeedLengths = append(fam.SeedLengths, l)
			}
		}
	}
	// Intersecting a constraint with itself canonicalizes it (sorted,
	// deduplicated, topk stripped) before the fold across members.
	c0, _ := members[0].parsedWhere()
	inter := constraint.Intersect(c0, c0)
	for _, m := range members[1:] {
		c, _ := m.parsedWhere()
		inter = constraint.Intersect(inter, c)
	}
	if inter.Expr != nil {
		fam.Where = inter.String()
		fam.WhereExpr = &Constraint{c: inter}
	}
	return fam, true
}
