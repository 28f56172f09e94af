package alert

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"simba/internal/race"
)

func sample() *Alert {
	return &Alert{
		ID:       "a-1",
		Source:   "yahoo-finance",
		Keywords: []string{"Stocks", "Earnings reports"},
		Subject:  "MSFT earnings out",
		Body:     "Microsoft reported quarterly earnings.\nSee attached.",
		Urgency:  UrgencyHigh,
		Created:  time.Date(2001, 3, 26, 10, 0, 0, 0, time.UTC),
	}
}

func TestUrgencyStringRoundTrip(t *testing.T) {
	for _, u := range []Urgency{UrgencyLow, UrgencyNormal, UrgencyHigh, UrgencyCritical} {
		got, err := ParseUrgency(u.String())
		if err != nil {
			t.Fatalf("ParseUrgency(%q): %v", u.String(), err)
		}
		if got != u {
			t.Fatalf("round trip %v -> %v", u, got)
		}
	}
}

func TestParseUrgencyUnknown(t *testing.T) {
	if _, err := ParseUrgency("shiny"); err == nil {
		t.Fatal("expected error for unknown urgency")
	}
}

func TestUrgencyStringUnknown(t *testing.T) {
	if got := Urgency(99).String(); got != "urgency(99)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Alert)
		wantErr bool
	}{
		{"valid", func(*Alert) {}, false},
		{"missing id", func(a *Alert) { a.ID = "" }, true},
		{"missing source", func(a *Alert) { a.Source = "" }, true},
		{"zero created", func(a *Alert) { a.Created = time.Time{} }, true},
		{"bad urgency low", func(a *Alert) { a.Urgency = 0 }, true},
		{"bad urgency high", func(a *Alert) { a.Urgency = 9 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := sample()
			tt.mutate(a)
			err := a.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNextIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NextID("x")
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

func TestDedupKeyStableAndDistinct(t *testing.T) {
	a := sample()
	b := a.Clone()
	if a.DedupKey() != b.DedupKey() {
		t.Fatal("clone has different dedup key")
	}
	c := a.Clone()
	c.Created = c.Created.Add(time.Nanosecond)
	if a.DedupKey() == c.DedupKey() {
		t.Fatal("different creation times share a dedup key")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := sample()
	b := a.Clone()
	b.Keywords[0] = "mutated"
	if a.Keywords[0] == "mutated" {
		t.Fatal("Clone shares keyword backing array")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := sample()
	data, err := a.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	if !IsWirePayload(string(data)) {
		t.Fatal("payload not recognized by IsWirePayload")
	}
	var got Alert
	if err := got.UnmarshalText(data); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	assertEqualAlert(t, a, &got)
}

// TestAppendWireAllocBudget pins the encoder at one growth of dst:
// exactly one allocation encoding into nil, whatever the fields hold
// (sanitized newlines, an EMAILFROM line, the widest CREATED), and none
// into a buffer with room. A fresh hub envelope's first encoding is the
// nil case; it cost five while append grew dst field by field.
func TestAppendWireAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	for _, a := range []*Alert{sample(), wide()} {
		if n := testing.AllocsPerRun(100, func() { _, _ = a.AppendWire(nil) }); n != 1 {
			t.Errorf("AppendWire(nil) of %q allocates %.0f times, want 1", a.Subject, n)
		}
		buf := make([]byte, 0, 4096)
		if n := testing.AllocsPerRun(100, func() { _, _ = a.AppendWire(buf) }); n != 0 {
			t.Errorf("AppendWire into a 4 KiB buffer of %q allocates %.0f times, want 0", a.Subject, n)
		}
		if got, _ := a.AppendWire(nil); len(got) > a.wireLen() {
			t.Errorf("the wire form of %q is %d bytes, over its %d-byte bound", a.Subject, len(got), a.wireLen())
		}
	}
}

// wide is an alert with every field the wire form cannot carry verbatim:
// comma-, newline- and empty keywords, a multi-line subject, an
// EmailFrom and the earliest Created.
func wide() *Alert {
	a := sample()
	a.ID = "a|1|"
	a.Source = "yahoo|finance"
	a.Subject = "line1\nline2\r"
	a.Keywords = append(a.Keywords, "a,b", "c\nd", "")
	a.EmailFrom = "stocks.earnings@yahoo.sim"
	a.Created = time.Unix(0, math.MinInt64)
	return a
}

// TestAppendRecordAllocBudget: the journal encoder grows dst once —
// exactly one allocation into nil, none into a buffer with room — and
// RecordLen is the exact length of what it appends.
func TestAppendRecordAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	for _, a := range []*Alert{sample(), wide()} {
		if n := testing.AllocsPerRun(100, func() { _, _ = a.AppendRecord(nil) }); n != 1 {
			t.Errorf("AppendRecord(nil) of %q allocates %.0f times, want 1", a.Subject, n)
		}
		buf := make([]byte, 0, 4096)
		if n := testing.AllocsPerRun(100, func() { _, _ = a.AppendRecord(buf) }); n != 0 {
			t.Errorf("AppendRecord into a 4 KiB buffer of %q allocates %.0f times, want 0", a.Subject, n)
		}
		if got, _ := a.AppendRecord(nil); len(got) != a.RecordLen() {
			t.Errorf("the record of %q is %d bytes, RecordLen says %d", a.Subject, len(got), a.RecordLen())
		}
	}
}

// TestUnmarshalRecordAllocBudget: decoding into a fresh receiver costs
// one string for every text field the record holds and one Keywords
// slice — the key's fields are substrings of the key — and decoding into
// a receiver whose Keywords have room, as a loop reusing one does, costs
// the string alone.
func TestUnmarshalRecordAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	for _, a := range []*Alert{sample(), wide()} {
		rec, err := a.AppendRecord(nil)
		if err != nil {
			t.Fatal(err)
		}
		key := a.DedupKey()
		var got Alert
		if n := testing.AllocsPerRun(100, func() { got = Alert{}; _ = got.UnmarshalRecord(rec, key) }); n > 2 {
			t.Errorf("UnmarshalRecord of %q into a fresh alert allocates %.0f times, want <= 2", a.Subject, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = got.UnmarshalRecord(rec, key) }); n > 1 {
			t.Errorf("UnmarshalRecord of %q into a reused alert allocates %.0f times, want <= 1", a.Subject, n)
		}
	}
}

// TestUnmarshalRecordReusesKeywordBacking pins the contract a replay
// loop relies on and a caller that keeps decoded alerts must respect:
// a receiver whose Keywords have room is decoded into that backing, and
// a failed decode leaves every field as it was.
func TestUnmarshalRecordReusesKeywordBacking(t *testing.T) {
	first, second := sample(), wide()
	recFirst, _ := first.AppendRecord(nil)
	recSecond, _ := second.AppendRecord(nil)
	var got Alert
	if err := got.UnmarshalRecord(recSecond, second.DedupKey()); err != nil { // the wider record sizes the backing
		t.Fatal(err)
	}
	backing := &got.Keywords[0]
	if err := got.UnmarshalRecord(recFirst, first.DedupKey()); err != nil {
		t.Fatal(err)
	}
	if &got.Keywords[0] != backing || !slices.Equal(got.Keywords, first.Keywords) {
		t.Fatalf("second decode: keywords %q in new backing %v, want %q in the receiver's", got.Keywords, &got.Keywords[0] != backing, first.Keywords)
	}
	kept := got
	if err := got.UnmarshalRecord(recSecond[:len(recSecond)-len(second.Body)-1], second.DedupKey()); err == nil {
		t.Fatal("a truncated record decoded")
	}
	if got.ID != kept.ID || got.Subject != kept.Subject || len(got.Keywords) != len(kept.Keywords) {
		t.Fatalf("a failed decode changed the receiver: %+v, was %+v", got, kept)
	}
}

// TestUnmarshalRecordSplitsItsKey: Source, ID and Created come back from
// the key — a '|' inside Source or ID and a pre-1970 Created included —
// and a key that does not split as the record says is refused.
func TestUnmarshalRecordSplitsItsKey(t *testing.T) {
	a := wide()
	a.Created = time.Date(1969, 7, 20, 20, 17, 40, 123456789, time.UTC)
	rec, _ := a.AppendRecord(nil)
	var got Alert
	if err := got.UnmarshalRecord(rec, a.DedupKey()); err != nil || !reflect.DeepEqual(&got, a) {
		t.Fatalf("decoded %+v (%v), want %+v", got, err, *a)
	}
	for _, key := range []string{
		"",
		"yahoo|finance",               // no ID or Created
		"yahoo|finance|a|1||",         // no Created
		"yahoofinance|a|1||-14182940", // no '|' where Source's length ends
		"yahoo|finance|a|1||+5",       // Created not canonical
		"yahoo|finance|a|1||05",
		"yahoo|finance|a|1||-0",
		"yahoo|finance|a|1||99999999999999999999", // Created out of range
		"yahoo|finance||-14182940",                // no ID
		"yahoo|fin|-14182940",                     // too short for Source
	} {
		if err := got.UnmarshalRecord(rec, key); err == nil {
			t.Errorf("the record decoded under key %q as %+v", key, got)
		}
	}
}

// FuzzUnmarshalRecord: decoding arbitrary bytes under an arbitrary key
// never panics, and never yields an alert that fails Validate or whose
// DedupKey is not the key; every valid alert — built from the other
// arguments, keywords split on NUL after a leading one — round-trips
// exactly under its own key, into storage that does not alias the
// record; and its record under a key that disagrees with it — another
// alert's whose Source, ID or Created differs — is refused or decodes to
// that other alert, never to a mix.
func FuzzUnmarshalRecord(f *testing.F) {
	for _, a := range []*Alert{sample(), wide()} {
		rec, _ := a.AppendRecord(nil)
		f.Add(rec, a.DedupKey(), a.ID, a.Source, "\x00"+strings.Join(a.Keywords, "\x00"), a.Subject, a.EmailFrom, a.Body, uint8(a.Urgency), a.Created.UnixNano())
	}
	f.Add([]byte{recordTag, 1, 0, 0, 4, 0}, "s|x|1", "x", "s", "", "", "", "", uint8(4), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, data []byte, key, id, source, kws, subject, from, body string, urgency uint8, created int64) {
		var got Alert
		if got.UnmarshalRecord(data, key) == nil {
			if err := got.Validate(); err != nil {
				t.Fatalf("decoded an invalid alert %+v: %v", got, err)
			}
			if got.DedupKey() != key {
				t.Fatalf("decoded under key %q an alert whose DedupKey is %q", key, got.DedupKey())
			}
		}
		a := &Alert{
			ID: id, Source: source, Keywords: strings.Split(kws, "\x00")[1:], Subject: subject,
			Body: body, Urgency: Urgency(urgency), Created: time.Unix(0, created), EmailFrom: from,
		}
		rec, err := a.AppendRecord(nil)
		if (err == nil) != (a.Validate() == nil) {
			t.Fatalf("AppendRecord error %v, Validate error %v", err, a.Validate())
		}
		if err != nil {
			return
		}
		if err := got.UnmarshalRecord(rec, a.DedupKey()); err != nil {
			t.Fatalf("UnmarshalRecord of a valid alert's record: %v", err)
		}
		if err := got.UnmarshalRecord(rec, key); err == nil && got.DedupKey() != key {
			t.Fatalf("under key %q the record decoded to %+v", key, got)
		}
		if err := got.UnmarshalRecord(rec, a.DedupKey()); err != nil {
			t.Fatal(err)
		}
		clear(rec)
		if got.ID != a.ID || got.Source != a.Source || got.Subject != a.Subject || got.Body != a.Body ||
			got.EmailFrom != a.EmailFrom || got.Urgency != a.Urgency || got.Created.UnixNano() != created ||
			!slices.Equal(got.Keywords, a.Keywords) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, *a)
		}
	})
}

func TestMarshalEmptyKeywordsAndBody(t *testing.T) {
	a := sample()
	a.Keywords = nil
	a.Body = ""
	data, err := a.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	var got Alert
	if err := got.UnmarshalText(data); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	if len(got.Keywords) != 0 || got.Body != "" {
		t.Fatalf("got keywords %v body %q, want empty", got.Keywords, got.Body)
	}
}

func TestMarshalSanitizesSubjectNewlines(t *testing.T) {
	a := sample()
	a.Subject = "line1\nline2\rline3"
	data, err := a.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	var got Alert
	if err := got.UnmarshalText(data); err != nil {
		t.Fatalf("UnmarshalText: %v", err)
	}
	if strings.ContainsAny(got.Subject, "\r\n") {
		t.Fatalf("subject still contains newline: %q", got.Subject)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"hello world",
		"SIMBA-ALERT/2\nID: x\nBODY:\n",
		"SIMBA-ALERT/1\nID x no colon at all…\nBODY:\n",
		"SIMBA-ALERT/1\nURGENCY: nope\nBODY:\n",
		"SIMBA-ALERT/1\nCREATED: notanumber\nBODY:\n",
		"SIMBA-ALERT/1\nBODY:\n", // missing required headers
	} {
		var a Alert
		if err := a.UnmarshalText([]byte(in)); err == nil {
			t.Fatalf("UnmarshalText(%q) succeeded, want error", in)
		}
	}
}

func TestUnmarshalIgnoresUnknownHeader(t *testing.T) {
	a := sample()
	data, _ := a.MarshalText()
	withExtra := strings.Replace(string(data), "BODY:\n", "X-FUTURE: yes\nBODY:\n", 1)
	var got Alert
	if err := got.UnmarshalText([]byte(withExtra)); err != nil {
		t.Fatalf("UnmarshalText with unknown header: %v", err)
	}
	assertEqualAlert(t, a, &got)
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(id, source, subject, body string, kw []string, urgPick uint8, unixSec int32) bool {
		if id == "" || source == "" {
			return true // Validate rejects; covered elsewhere.
		}
		id = sanitizeLine(id)
		source = sanitizeLine(source)
		if strings.ContainsAny(id+source, ":") {
			return true // header values with colons are legal but keep the property simple
		}
		var clean []string
		for _, k := range kw {
			k = sanitizeLine(k)
			if k == "" || strings.ContainsAny(k, ",:") {
				return true
			}
			clean = append(clean, k)
		}
		a := &Alert{
			ID:       id,
			Source:   source,
			Keywords: clean,
			Subject:  sanitizeLine(subject),
			Body:     body,
			Urgency:  Urgency(int(urgPick%4) + 1),
			Created:  time.Unix(int64(unixSec), 0).UTC(),
		}
		if a.Created.IsZero() {
			return true
		}
		data, err := a.MarshalText()
		if err != nil {
			return false
		}
		var got Alert
		if err := got.UnmarshalText(data); err != nil {
			return false
		}
		if got.ID != a.ID || got.Source != a.Source || got.Subject != a.Subject ||
			got.Body != a.Body || got.Urgency != a.Urgency || !got.Created.Equal(a.Created) {
			return false
		}
		if len(got.Keywords) != len(a.Keywords) {
			return false
		}
		for i := range got.Keywords {
			if got.Keywords[i] != a.Keywords[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func assertEqualAlert(t *testing.T, want, got *Alert) {
	t.Helper()
	if got.ID != want.ID || got.Source != want.Source || got.Subject != want.Subject ||
		got.Body != want.Body || got.Urgency != want.Urgency || !got.Created.Equal(want.Created) {
		t.Fatalf("alert mismatch:\n got %+v\nwant %+v", got, want)
	}
	if strings.Join(got.Keywords, "|") != strings.Join(want.Keywords, "|") {
		t.Fatalf("keywords mismatch: got %v want %v", got.Keywords, want.Keywords)
	}
}
