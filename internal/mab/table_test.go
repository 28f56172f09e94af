package mab

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"
)

// TestTableMatchesMap applies seeded random put/del sequences to a
// table and to a plain map and compares the two after every step. Each
// sequence swings between phases that mostly put and phases that mostly
// delete, so the table crosses its inline size both ways many times.
// After every step the table holds the model's entries, keeps them
// inline exactly when there are at most tableInline, and the copy taken
// before the step still holds what it held: an edit never writes
// storage another copy shares.
func TestTableMatchesMap(t *testing.T) {
	const keys, steps = 12, 2000
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var tb table[int, int]
		model := map[int]int{}
		for step := range steps {
			before, beforeModel := tb, maps.Clone(model)
			delPercent := 25 + 50*(step/100%2)
			if k := rng.IntN(keys); rng.IntN(100) < delPercent {
				_, had := model[k]
				delete(model, k)
				if got := tb.del(k); got != had {
					t.Fatalf("seed %d step %d: del(%d) = %v, want %v", seed, step, k, got, had)
				}
			} else {
				v := rng.Int()
				model[k] = v
				tb.put(k, v)
			}
			if err := tableEquals(&tb, model, keys); err != nil {
				t.Fatalf("seed %d step %d: table: %v", seed, step, err)
			}
			if err := tableEquals(&before, beforeModel, keys); err != nil {
				t.Fatalf("seed %d step %d: the copy taken before the step: %v", seed, step, err)
			}
		}
	}
}

// tableEquals reports how tb differs from model, if it does.
func tableEquals(tb *table[int, int], model map[int]int, keys int) error {
	if inline := tb.m == nil; inline != (len(model) <= tableInline) {
		return fmt.Errorf("inline is %v with %d entries", inline, len(model))
	}
	got := map[int]int{}
	for k, v := range tb.all {
		if _, dup := got[k]; dup {
			return fmt.Errorf("all yields key %d twice", k)
		}
		got[k] = v
	}
	if !maps.Equal(got, model) {
		return fmt.Errorf("all yields %v, want %v", got, model)
	}
	for k := range keys {
		v, ok := tb.get(k)
		if want, wantOK := model[k]; v != want || ok != wantOK {
			return fmt.Errorf("get(%d) = (%d, %v), want (%d, %v)", k, v, ok, want, wantOK)
		}
	}
	return nil
}
