package skinnymine

import (
	"errors"
	"fmt"
	"strings"

	"skinnymine/internal/constraint"
)

// Validation errors. Options.Validate wraps each with the offending
// value, so callers branch with errors.Is and users still see what was
// sent. The library (Mine, MineDB, Index.Mine), the CLI and the serving
// daemon all validate through Options.Validate, so every entry point
// rejects the same inputs with the same messages.
var (
	// ErrSupport reports Options.Support < 1.
	ErrSupport = errors.New("support must be >= 1")
	// ErrLength reports Options.Length < 1.
	ErrLength = errors.New("length must be >= 1")
	// ErrMinLength reports a MinLength outside [0, Length].
	ErrMinLength = errors.New("min_length must lie in [0, length]")
	// ErrMeasure reports a Measure that is neither EmbeddingCount nor
	// GraphCount.
	ErrMeasure = errors.New(`measure must be EmbeddingCount ("embeddings") or GraphCount ("graphs")`)
	// ErrMaxPatterns reports a negative MaxPatterns.
	ErrMaxPatterns = errors.New("max_patterns must be >= 0")
	// ErrSeedLengths reports a SeedLengths entry outside the band
	// [MinLength or Length, Length].
	ErrSeedLengths = errors.New("seed lengths must lie within the band")
	// ErrWhere wraps a Where constraint that failed to parse.
	ErrWhere = errors.New("invalid where constraint")
)

// Validate checks the request fields without mining, returning a typed
// error (see ErrSupport and friends) for the first invalid one. Mine,
// MineDB and Index.Mine call it on entry; the CLI and the serving
// daemon call it too, so all three surfaces reject identically.
func (o Options) Validate() error {
	if o.Support < 1 {
		return fmt.Errorf("skinnymine: %w (got %d)", ErrSupport, o.Support)
	}
	if o.Length < 1 {
		return fmt.Errorf("skinnymine: %w (got %d)", ErrLength, o.Length)
	}
	if o.MinLength < 0 || o.MinLength > o.Length {
		return fmt.Errorf("skinnymine: %w (got min_length %d, length %d)", ErrMinLength, o.MinLength, o.Length)
	}
	if o.Measure != EmbeddingCount && o.Measure != GraphCount {
		return fmt.Errorf("skinnymine: %w (got %d)", ErrMeasure, int(o.Measure))
	}
	if o.MaxPatterns < 0 {
		return fmt.Errorf("skinnymine: %w (got %d)", ErrMaxPatterns, o.MaxPatterns)
	}
	if len(o.SeedLengths) > 0 {
		lo := o.Length
		if o.MinLength > 0 {
			lo = o.MinLength
		}
		for _, l := range o.SeedLengths {
			if l < lo || l > o.Length {
				return fmt.Errorf("skinnymine: %w (got %d, band [%d, %d])", ErrSeedLengths, l, lo, o.Length)
			}
		}
	}
	if _, err := o.parsedWhere(); err != nil {
		return err
	}
	return nil
}

// parsedWhere resolves the request's constraint: the pre-parsed
// WhereExpr when set, otherwise the parsed Where string; nil when the
// request is unconstrained.
func (o Options) parsedWhere() (*constraint.Constraint, error) {
	if o.WhereExpr != nil {
		return o.WhereExpr.c, nil
	}
	if strings.TrimSpace(o.Where) == "" {
		return nil, nil
	}
	c, err := ParseConstraint(o.Where)
	if err != nil {
		return nil, err
	}
	return c.c, nil
}

// stashWhere parses the Where string once and pins the result on
// WhereExpr, so the Validate/lower pair that follows re-uses the parse
// instead of repeating it.
func (o *Options) stashWhere() error {
	if o.WhereExpr != nil || strings.TrimSpace(o.Where) == "" {
		return nil
	}
	c, err := ParseConstraint(o.Where)
	if err != nil {
		return err
	}
	o.WhereExpr = c
	return nil
}
