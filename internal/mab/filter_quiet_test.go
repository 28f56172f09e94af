package mab

import (
	"testing"
	"time"
	_ "time/tzdata" // DST fixtures must not depend on the host zone database
)

// TestFilterQuietHoursAcrossDST pins the quiet-window semantics across
// daylight-saving transitions: offsets are wall-clock ("the clock on
// the wall reads between 01:00 and 04:00"), not elapsed time since
// midnight. America/New_York springs forward 2021-03-14 02:00→03:00
// and falls back 2021-11-07 02:00→01:00.
func TestFilterQuietHoursAcrossDST(t *testing.T) {
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	f := new(Filter)
	f.SetQuietHours("News", 1*time.Hour, 4*time.Hour)

	cases := []struct {
		name string
		at   time.Time
		want bool // Allow result
	}{
		{"spring: before window", time.Date(2021, 3, 14, 0, 30, 0, 0, ny), true},
		{"spring: inside window (EST)", time.Date(2021, 3, 14, 1, 30, 0, 0, ny), false},
		// 03:30 EDT is only 2.5 elapsed hours after midnight, but the
		// clock face is inside the window.
		{"spring: inside window (EDT)", time.Date(2021, 3, 14, 3, 30, 0, 0, ny), false},
		// 04:30 EDT is 3.5 elapsed hours after midnight — elapsed-time
		// arithmetic would still suppress it; the wall clock says the
		// window is over.
		{"spring: after window (EDT)", time.Date(2021, 3, 14, 4, 30, 0, 0, ny), true},
		// Fall-back day: 03:30 EST is 4.5 elapsed hours after midnight
		// (the 01:00 hour repeats) — elapsed-time arithmetic would
		// deliver it; the wall clock is still inside the window.
		{"fall: inside window (EST)", time.Date(2021, 11, 7, 3, 30, 0, 0, ny), false},
		{"fall: after window", time.Date(2021, 11, 7, 4, 30, 0, 0, ny), true},
	}
	for _, tc := range cases {
		if got := f.Allow("News", tc.at); got != tc.want {
			t.Errorf("%s: Allow(%v) = %v, want %v", tc.name, tc.at, got, tc.want)
		}
	}
}

// TestFilterQuietHoursWrapMidnight exercises a start>end window
// (22:00–07:00) spanning midnight.
func TestFilterQuietHoursWrapMidnight(t *testing.T) {
	f := new(Filter)
	f.SetQuietHours("News", 22*time.Hour, 7*time.Hour)

	day := func(h, m, s int) time.Time {
		return time.Date(2026, 8, 5, h, m, s, 0, time.UTC)
	}
	cases := []struct {
		name string
		at   time.Time
		want bool
	}{
		{"mid-day", day(12, 0, 0), true},
		{"just before start", day(21, 59, 59), true},
		{"at start", day(22, 0, 0), false},
		{"before midnight", day(23, 59, 59), false},
		{"just after midnight", day(0, 0, 1), false},
		{"just before end", day(6, 59, 59), false},
		{"at end", day(7, 0, 0), true},
	}
	for _, tc := range cases {
		if got := f.Allow("News", tc.at); got != tc.want {
			t.Errorf("%s: Allow(%v) = %v, want %v", tc.name, tc.at, got, tc.want)
		}
	}
}
