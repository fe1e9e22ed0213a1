// Package backoff is the one retry-wait policy of the repo: capped
// doubling, proportional jitter, and the fractional-seconds
// Retry-After header fvcd sends and honours. Callers keep their own
// base, cap and jitter fraction; this package only does the arithmetic.
package backoff

import (
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"
)

// Capped returns base doubled attempt times (attempt 0 is base itself),
// capped at max; max ≤ 0 means uncapped, in which case growth saturates
// at the largest Duration instead of overflowing. A non-positive base
// means no wait.
func Capped(base, max time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if max <= 0 {
		max = math.MaxInt64
	}
	d := base
	for ; attempt > 0 && d < max; attempt-- {
		if d > max/2 {
			return max
		}
		d *= 2
	}
	return min(d, max)
}

// Jitter spreads d uniformly over [d−frac·d, d+frac·d) so clients that
// failed together do not retry together. frac is in [0, 1]; a
// non-positive d means no wait.
func Jitter(d time.Duration, frac float64) time.Duration {
	if d <= 0 {
		return 0
	}
	span := int64(2 * frac * float64(d))
	if span <= 0 {
		return d
	}
	j := time.Duration(int64(d) - (span - span/2) + rand.Int64N(span))
	if j < 0 { // wrapped past the largest Duration
		return math.MaxInt64
	}
	return j
}

// FormatRetryAfter renders d as a Retry-After value in fractional
// seconds. RFC 9110 specifies integer delta-seconds, but rounding to
// whole seconds would erase the jitter; clients that truncate still
// land on a sane value.
func FormatRetryAfter(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', 2, 64)
}

// ParseRetryAfter reads a fractional-seconds Retry-After value
// (surrounding whitespace tolerated). ok is false for anything that is
// not a finite, non-negative number of seconds representable as a
// Duration, so the caller falls back to its computed backoff.
func ParseRetryAfter(v string) (d time.Duration, ok bool) {
	s, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil || !(s >= 0) {
		return 0, false
	}
	ns := s * float64(time.Second)
	if ns >= math.MaxInt64 { // also catches +Inf
		return 0, false
	}
	return time.Duration(ns), true
}
