package addr

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleBook() *Book {
	return &Book{
		User: "alice",
		Addresses: []Address{
			{Type: TypeIM, Name: "MSN IM", Target: "alice@im.sim", Enabled: true},
			{Type: TypeSMS, Name: "Cell SMS", Target: "5551234@sms.sim", Enabled: true},
			{Type: TypeEmail, Name: "Work email", Target: "alice@work.sim", Enabled: true},
			{Type: TypeEmail, Name: "Home email", Target: "alice@home.sim", Enabled: false},
		},
	}
}

// sampleRegistry registers sampleBook's addresses, in order.
func sampleRegistry(t *testing.T) *Registry {
	t.Helper()
	b := sampleBook()
	r := NewRegistry(b.User)
	for _, a := range b.Addresses {
		if err := r.Register(a); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestTypeValid(t *testing.T) {
	for _, tt := range []struct {
		in   Type
		want bool
	}{
		{TypeIM, true}, {TypeSMS, true}, {TypeEmail, true},
		{Type("FAX"), false}, {Type(""), false}, {Type("im"), false},
	} {
		if got := tt.in.Valid(); got != tt.want {
			t.Fatalf("Valid(%q) = %v", tt.in, got)
		}
	}
}

func TestAddressValidate(t *testing.T) {
	tests := []struct {
		name    string
		addr    Address
		wantErr string
	}{
		{"valid", Address{Type: TypeIM, Name: "x", Target: "t"}, ""},
		{"bad type", Address{Type: "FAX", Name: "x", Target: "t"}, "unknown communication type"},
		{"no name", Address{Type: TypeIM, Target: "t"}, "missing friendly name"},
		{"no target", Address{Type: TypeIM, Name: "x"}, "missing target"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.addr.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want contains %q", err, tt.wantErr)
			}
		})
	}
}

func TestBookValidateDuplicates(t *testing.T) {
	b := sampleBook()
	b.Addresses = append(b.Addresses, Address{Type: TypeIM, Name: "MSN IM", Target: "other"})
	if err := b.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("Validate() = %v, want duplicate error", err)
	}
}

func TestBookValidateMissingUser(t *testing.T) {
	b := sampleBook()
	b.User = ""
	if err := b.Validate(); err == nil {
		t.Fatal("Validate() accepted missing user")
	}
}

func TestBookXMLRoundTrip(t *testing.T) {
	b := sampleBook()
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.User != b.User || len(got.Addresses) != len(b.Addresses) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range b.Addresses {
		if got.Addresses[i] != b.Addresses[i] {
			t.Fatalf("address %d mismatch: got %+v want %+v", i, got.Addresses[i], b.Addresses[i])
		}
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	for _, in := range []string{
		"not xml at all <",
		`<addresses user=""><address type="IM" name="a" target="t" enabled="true"/></addresses>`,
		`<addresses user="u"><address type="ZZ" name="a" target="t" enabled="true"/></addresses>`,
	} {
		if _, err := Unmarshal([]byte(in)); err == nil {
			t.Fatalf("Unmarshal(%q) succeeded", in)
		}
	}
}

func TestBookXMLRoundTripProperty(t *testing.T) {
	f := func(user string, names []string) bool {
		user = xmlSafe(user)
		if user == "" {
			return true
		}
		b := &Book{User: user}
		seen := map[string]bool{}
		types := []Type{TypeIM, TypeSMS, TypeEmail}
		for i, n := range names {
			n = xmlSafe(n)
			if n == "" || seen[n] {
				return true
			}
			seen[n] = true
			b.Addresses = append(b.Addresses, Address{
				Type:    types[i%len(types)],
				Name:    n,
				Target:  "target-" + n,
				Enabled: i%2 == 0,
			})
		}
		data, err := b.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if got.User != b.User || len(got.Addresses) != len(b.Addresses) {
			return false
		}
		for i := range b.Addresses {
			if got.Addresses[i] != b.Addresses[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	r := NewRegistry("alice")
	if r.User() != "alice" {
		t.Fatalf("User() = %q", r.User())
	}
	a := Address{Type: TypeIM, Name: "MSN IM", Target: "alice@im.sim", Enabled: true}
	if err := r.Register(a); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := r.Register(a); err == nil {
		t.Fatal("duplicate Register succeeded")
	}
	if err := r.Register(Address{Type: "FAX", Name: "f", Target: "t"}); err == nil {
		t.Fatal("invalid Register succeeded")
	}
	got, ok := r.Lookup("MSN IM")
	if !ok || got != a {
		t.Fatalf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("Lookup(nope) found something")
	}
}

func TestRegistryRegisterCopies(t *testing.T) {
	r := NewRegistry("alice")
	a := Address{Type: TypeIM, Name: "MSN IM", Target: "x", Enabled: true}
	if err := r.Register(a); err != nil {
		t.Fatal(err)
	}
	a.Target = "mutated"
	got, _ := r.Lookup("MSN IM")
	if got.Target != "x" {
		t.Fatal("Register aliased caller's struct")
	}
}

func TestRegistrySetEnabled(t *testing.T) {
	r := sampleRegistry(t)
	if err := r.SetEnabled("Cell SMS", false); err != nil {
		t.Fatalf("SetEnabled: %v", err)
	}
	got, _ := r.Lookup("Cell SMS")
	if got.Enabled {
		t.Fatal("address still enabled")
	}
	if err := r.SetEnabled("missing", true); err == nil {
		t.Fatal("SetEnabled(missing) succeeded")
	}
}

func TestRegistrySetTypeEnabled(t *testing.T) {
	r := sampleRegistry(t)
	// Two EM addresses, one already disabled → only one changes.
	if n := r.SetTypeEnabled(TypeEmail, false); n != 1 {
		t.Fatalf("SetTypeEnabled disabled %d, want 1", n)
	}
	for _, a := range r.All() {
		if a.Type == TypeEmail && a.Enabled {
			t.Fatalf("email address %q still enabled", a.Name)
		}
	}
	if n := r.SetTypeEnabled(TypeEmail, true); n != 2 {
		t.Fatalf("SetTypeEnabled enabled %d, want 2", n)
	}
}

func TestRegistryAllPreservesOrder(t *testing.T) {
	r := sampleRegistry(t)
	all := r.All()
	want := []string{"MSN IM", "Cell SMS", "Work email", "Home email"}
	for i, name := range want {
		if all[i].Name != name {
			t.Fatalf("All()[%d] = %q, want %q", i, all[i].Name, name)
		}
	}
}

func TestRegistryBookRoundTrip(t *testing.T) {
	r := sampleRegistry(t)
	b := r.Book()
	if err := b.Validate(); err != nil {
		t.Fatalf("regenerated book invalid: %v", err)
	}
	if len(b.Addresses) != 4 || b.User != "alice" {
		t.Fatalf("regenerated book = %+v", b)
	}
}

// xmlSafe reduces an arbitrary string to characters that encoding/xml
// can round-trip through an attribute value.
func xmlSafe(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == ' ' || r == '-' {
			b.WriteRune(r)
		}
	}
	return strings.TrimSpace(b.String())
}
