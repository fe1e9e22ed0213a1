package backoff

import (
	"math"
	"testing"
	"time"
)

// TestCappedDoubling pins the table experiment.RetryPolicy's backoff
// has always produced: doubling from the base, clamped at the cap.
func TestCappedDoubling(t *testing.T) {
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		50 * time.Millisecond, // capped
		50 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := Capped(10*time.Millisecond, 50*time.Millisecond, attempt); got != w {
			t.Errorf("Capped(10ms, 50ms, %d) = %v, want %v", attempt, got, w)
		}
	}
	if got := Capped(0, time.Second, 3); got != 0 {
		t.Errorf("zero base = %v, want 0", got)
	}
	if got := Capped(time.Second, 0, 10); got != 1024*time.Second {
		t.Errorf("uncapped attempt 10 = %v, want 1024s", got)
	}
	if got := Capped(time.Second, 100*time.Millisecond, 0); got != 100*time.Millisecond {
		t.Errorf("base above cap = %v, want the cap", got)
	}
}

// TestCappedNeverNegative: large attempt counts saturate instead of
// overflowing into negative (or zero) durations, capped or not.
func TestCappedNeverNegative(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 0; attempt < 200; attempt++ {
		got := Capped(time.Millisecond, 0, attempt)
		if got < prev {
			t.Fatalf("uncapped attempt %d = %v, below attempt %d's %v", attempt, got, attempt-1, prev)
		}
		prev = got
	}
	for _, attempt := range []int{64, 100, 1 << 20, math.MaxInt} {
		if got := Capped(time.Millisecond, 0, attempt); got != math.MaxInt64 {
			t.Errorf("uncapped attempt %d = %v, want saturation", attempt, got)
		}
		if got := Capped(25*time.Millisecond, 400*time.Millisecond, attempt); got != 400*time.Millisecond {
			t.Errorf("capped attempt %d = %v, want the cap", attempt, got)
		}
	}
	if got := Jitter(math.MaxInt64, 0.5); got <= 0 {
		t.Errorf("Jitter of the largest duration = %v, want positive", got)
	}
}

func TestJitterBounds(t *testing.T) {
	for _, frac := range []float64{0.2, 0.5} {
		d := 100 * time.Millisecond
		lo := d - time.Duration(frac*float64(d))
		hi := d + time.Duration(frac*float64(d))
		seen := map[time.Duration]bool{}
		for i := 0; i < 500; i++ {
			got := Jitter(d, frac)
			if got < lo || got >= hi {
				t.Fatalf("Jitter(%v, %v) = %v outside [%v, %v)", d, frac, got, lo, hi)
			}
			seen[got] = true
		}
		if len(seen) < 2 {
			t.Fatalf("Jitter(%v, %v) never varied", d, frac)
		}
	}
	if got := Jitter(0, 0.5); got != 0 {
		t.Errorf("Jitter(0) = %v", got)
	}
	if got := Jitter(time.Second, 0); got != time.Second {
		t.Errorf("Jitter with no fraction = %v", got)
	}
}

func TestRetryAfterRoundTrip(t *testing.T) {
	if got := FormatRetryAfter(1234 * time.Millisecond); got != "1.23" {
		t.Errorf("FormatRetryAfter = %q", got)
	}
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"0.25", 250 * time.Millisecond},
		{"2", 2 * time.Second},
		{" 0.5\t", 500 * time.Millisecond},
		{"0", 0},
		{FormatRetryAfter(800 * time.Millisecond), 800 * time.Millisecond},
	} {
		if got, ok := ParseRetryAfter(tc.in); !ok || got != tc.want {
			t.Errorf("ParseRetryAfter(%q) = %v, %v; want %v", tc.in, got, ok, tc.want)
		}
	}
	for _, bad := range []string{"", "soon", "-1", "1h", "NaN", "Inf", "+Inf", "-Inf", "1e300", "1e10", "9.3e9"} {
		if got, ok := ParseRetryAfter(bad); ok {
			t.Errorf("ParseRetryAfter(%q) = %v, want unparseable", bad, got)
		}
	}
}
