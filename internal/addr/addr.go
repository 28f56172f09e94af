// Package addr implements the user address book of SIMBA's
// subscription layer. Each user registers a list of communication
// addresses, each tagged with a communication type (IM, SMS, or EM for
// email) and identified by a friendly name such as "MSN IM" or "Work
// email". Delivery-mode actions refer to addresses exclusively through
// friendly names, and addresses can be enabled and disabled at run time
// — per the paper, disabling the SMS address while traveling makes any
// block containing an SMS action fail over to the next backup block.
//
// Address books are expressed in XML, following the paper's choice of
// XML "to allow extensibility for accommodating new communication
// addresses".
package addr

import (
	"encoding/xml"
	"fmt"
	"sync"
)

// Type is a communication type.
type Type string

// Communication types from the paper.
const (
	TypeIM    Type = "IM"
	TypeSMS   Type = "SMS"
	TypeEmail Type = "EM"
	// TypeSink is the hosting substrate's pseudo-channel: hosted
	// tenants without a personalized delivery mode deliver through the
	// hub's flat sink, which registers its adapter channel under this
	// type. It never appears in a user-authored address book.
	TypeSink Type = "SINK"
)

// Valid reports whether t is a known communication type.
func (t Type) Valid() bool {
	switch t {
	case TypeIM, TypeSMS, TypeEmail, TypeSink:
		return true
	default:
		return false
	}
}

// Address is one registered delivery address.
type Address struct {
	// Type is the communication type.
	Type Type `xml:"type,attr"`
	// Name is the user-chosen friendly name, unique within the book.
	Name string `xml:"name,attr"`
	// Target is the network address: an IM handle, an SMS gateway
	// address, or an email address.
	Target string `xml:"target,attr"`
	// Enabled marks the address usable for delivery.
	Enabled bool `xml:"enabled,attr"`
}

// Validate reports whether the address is well-formed.
func (a *Address) Validate() error {
	switch {
	case !a.Type.Valid():
		return fmt.Errorf("addr: unknown communication type %q", a.Type)
	case a.Name == "":
		return fmt.Errorf("addr: address of type %s missing friendly name", a.Type)
	case a.Target == "":
		return fmt.Errorf("addr: address %q missing target", a.Name)
	default:
		return nil
	}
}

// Book is the XML document form of a user's address list.
type Book struct {
	XMLName   xml.Name  `xml:"addresses"`
	User      string    `xml:"user,attr"`
	Addresses []Address `xml:"address"`
}

// Validate checks the whole document, including friendly-name
// uniqueness.
func (b *Book) Validate() error {
	if b.User == "" {
		return fmt.Errorf("addr: address book missing user")
	}
	seen := make(map[string]bool, len(b.Addresses))
	for i := range b.Addresses {
		a := &b.Addresses[i]
		if err := a.Validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("addr: duplicate friendly name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Marshal renders the book as an XML document.
func (b *Book) Marshal() ([]byte, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return xml.MarshalIndent(b, "", "  ")
}

// Unmarshal parses and validates an XML address book.
func Unmarshal(data []byte) (*Book, error) {
	var b Book
	if err := xml.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("addr: parsing address book: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// Registry is the mutable, concurrency-safe view of one user's address
// book that the delivery engine consults at routing time.
type Registry struct {
	mu     sync.RWMutex
	user   string
	byName map[string]*Address
	order  []string // friendly names in registration order
}

// NewRegistry returns an empty registry for the user.
func NewRegistry(user string) *Registry {
	return &Registry{user: user, byName: make(map[string]*Address)}
}

// User returns the owning user name.
func (r *Registry) User() string { return r.user }

// Register adds an address. The friendly name must be unused.
func (r *Registry) Register(a Address) error {
	if err := a.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[a.Name]; ok {
		return fmt.Errorf("addr: friendly name %q already registered", a.Name)
	}
	cp := a
	r.byName[a.Name] = &cp
	r.order = append(r.order, a.Name)
	return nil
}

// Lookup returns the address with the given friendly name.
func (r *Registry) Lookup(name string) (Address, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.byName[name]
	if !ok {
		return Address{}, false
	}
	return *a, true
}

// SetEnabled enables or disables the named address.
func (r *Registry) SetEnabled(name string, enabled bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, ok := r.byName[name]
	if !ok {
		return fmt.Errorf("addr: no address named %q", name)
	}
	a.Enabled = enabled
	return nil
}

// SetTypeEnabled enables or disables every address of the given type —
// the paper's "temporarily disable her SMS address" operation in one
// call. It returns how many addresses changed state.
func (r *Registry) SetTypeEnabled(t Type, enabled bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, a := range r.byName {
		if a.Type == t && a.Enabled != enabled {
			a.Enabled = enabled
			n++
		}
	}
	return n
}

// All returns every address in registration order.
func (r *Registry) All() []Address {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Address, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, *r.byName[name])
	}
	return out
}

// Book renders the registry back into document form.
func (r *Registry) Book() *Book {
	return &Book{User: r.user, Addresses: r.All()}
}
