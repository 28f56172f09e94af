package mab

import "maps"

// tableInline is how many entries a table holds in place before it
// moves them into a map.
const tableInline = 4

// table is the lookup table a pipeline stage's copy-on-write snapshot
// embeds by value. Up to tableInline entries live inline, in the
// snapshot's own allocation, and a lookup scans them without hashing;
// copying the snapshot copies them, so an edit costs the one new
// snapshot. Past tableInline the entries move to a map, which is never
// written once a snapshot holding it is published: put and del on a map
// table build a new one, and a table that shrinks back to tableInline
// entries moves inline again. The zero table is empty. Only a mutator's
// private copy is ever edited.
type table[K comparable, V any] struct {
	n    int // inline entries; 0 once m holds them
	keys [tableInline]K
	vals [tableInline]V
	m    map[K]V
}

func (t *table[K, V]) get(k K) (v V, ok bool) {
	if t.m != nil {
		v, ok = t.m[k]
		return v, ok
	}
	for i := range t.n {
		if t.keys[i] == k {
			return t.vals[i], true
		}
	}
	return v, false
}

// all yields every entry, in no particular order.
func (t *table[K, V]) all(yield func(K, V) bool) {
	maps.All(t.m)(yield) // at most one of the two loops has entries
	for i := 0; i < t.n && yield(t.keys[i], t.vals[i]); i++ {
	}
}

// put sets k's entry to v, replacing the one k has.
func (t *table[K, V]) put(k K, v V) {
	for i := range t.n {
		if t.keys[i] == k {
			t.vals[i] = v
			return
		}
	}
	if t.m == nil && t.n < tableInline {
		t.keys[t.n], t.vals[t.n] = k, v
		t.n++
		return
	}
	m := make(map[K]V, t.n+len(t.m)+1)
	maps.Insert(m, t.all)
	m[k] = v
	*t = table[K, V]{m: m}
}

// del removes k's entry and reports whether there was one.
func (t *table[K, V]) del(k K) bool {
	if _, ok := t.get(k); !ok {
		return false
	}
	old := *t
	*t = table[K, V]{}
	if len(old.m) > tableInline+1 {
		t.m = maps.Clone(old.m)
		delete(t.m, k)
		return true
	}
	for ok, v := range old.all {
		if ok != k {
			t.put(ok, v)
		}
	}
	return true
}
