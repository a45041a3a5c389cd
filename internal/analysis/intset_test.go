package analysis

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// setOp is one step of a random intSet history: add v, or union with
// the set of vs.
type setOp struct {
	union bool
	v     int
	vs    []int
}

type quickSetOps struct{ ops []setOp }

// drawMember favours the places the representation could get wrong:
// both sides of chunk boundaries, negatives, and outliers far from
// everything else.
func drawMember(r *rand.Rand) int {
	switch r.Intn(8) {
	case 0:
		return []int{-65, -64, -63, -1, 0, 1, 63, 64, 65, 127, 128}[r.Intn(11)]
	case 1:
		return []int{1 << 40, -(1 << 40), 1<<40 + 63, 1<<40 + 64, -(1 << 40) - 1}[r.Intn(5)]
	case 2:
		return r.Intn(100_000*2) - 100_000
	default:
		return r.Intn(300) - 40
	}
}

func (quickSetOps) Generate(r *rand.Rand, size int) reflect.Value {
	ops := make([]setOp, r.Intn(size+1))
	for i := range ops {
		if r.Intn(3) == 0 {
			ops[i].union = true
			ops[i].vs = make([]int, r.Intn(12))
			for j := range ops[i].vs {
				ops[i].vs[j] = drawMember(r)
			}
		} else {
			ops[i].v = drawMember(r)
		}
	}
	return reflect.ValueOf(quickSetOps{ops})
}

func sortedKeys(m map[int]struct{}) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func members(s intSet) []int {
	out := []int{}
	s.each(func(v int) { out = append(out, v) })
	return out
}

// agrees holds an intSet to its map reference: members in ascending
// order, count, ends, and the no-empty-chunk, sorted-keys shape.
func agrees(t *testing.T, s intSet, ref map[int]struct{}) bool {
	t.Helper()
	want := sortedKeys(ref)
	if got := members(s); !slices.Equal(got, want) {
		t.Logf("members %v, want %v", got, want)
		return false
	}
	if s.len() != len(want) {
		t.Logf("len %d, want %d", s.len(), len(want))
		return false
	}
	if len(want) > 0 && (s.min() != want[0] || s.max() != want[len(want)-1]) {
		t.Logf("min/max %d/%d, want %d/%d", s.min(), s.max(), want[0], want[len(want)-1])
		return false
	}
	for i, c := range s {
		if c.bits == 0 || (i > 0 && s[i-1].key >= c.key) {
			t.Logf("chunk %d of %v is empty or out of order", i, s)
			return false
		}
	}
	return true
}

// TestIntSetMatchesMap: over random add/union histories an intSet and
// a map[int]struct{} hold the same members, add reports and union's
// onFresh fires exactly for the members new to the receiver, and a
// union leaves its argument alone and shares no memory with it.
func TestIntSetMatchesMap(t *testing.T) {
	prop := func(h quickSetOps) bool {
		var s intSet
		ref := map[int]struct{}{}
		for _, op := range h.ops {
			if !op.union {
				_, had := ref[op.v]
				ref[op.v] = struct{}{}
				if fresh := s.add(op.v); fresh == had {
					t.Logf("add(%d) reported fresh=%v with had=%v", op.v, fresh, had)
					return false
				}
			} else {
				var o intSet
				oref, wantFresh := map[int]struct{}{}, map[int]struct{}{}
				for _, v := range op.vs {
					o.add(v)
					oref[v] = struct{}{}
					if _, had := ref[v]; !had {
						wantFresh[v] = struct{}{}
					}
					ref[v] = struct{}{}
				}
				before := slices.Clone(o)
				var fresh []int
				s.union(o, func(v int) { fresh = append(fresh, v) })
				if !slices.Equal(fresh, sortedKeys(wantFresh)) {
					t.Logf("union fired onFresh for %v, want %v", fresh, sortedKeys(wantFresh))
					return false
				}
				// The receiver keeps growing; the argument must not notice.
				s.add(op.v)
				ref[op.v] = struct{}{}
				if !slices.Equal(o, before) || !agrees(t, o, oref) {
					t.Logf("union changed or aliased its argument: %v, was %v", o, before)
					return false
				}
			}
			if !agrees(t, s, ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestIntSetShape pins the cost model: a chunk per occupied 64-wide
// window and nothing for the distance between them.
func TestIntSetShape(t *testing.T) {
	var s intSet
	s.add(0)
	s.add(1 << 40)
	if len(s) != 2 {
		t.Errorf("{0, 1<<40} is %d chunks, want 2", len(s))
	}
	var one intSet
	if n := testing.AllocsPerRun(10, func() { one = nil; one.add(1<<40 + 5) }); n != 1 || len(one) != 1 {
		t.Errorf("one member near 1<<40: %v allocations, %d chunks, want 1 and 1", n, len(one))
	}
	var pots, days intSet
	for v := 0; v < 221; v++ {
		pots.add(v)
	}
	for v := 0; v < 486; v++ {
		days.add(v)
	}
	if len(pots) != 4 || len(days) != 8 {
		t.Errorf("221 pots in %d chunks, 486 days in %d, want 4 and 8", len(pots), len(days))
	}
	var into intSet
	into.union(intSet{}, nil)
	if into != nil || into.len() != 0 || into.min() != 0 || into.max() != 0 {
		t.Errorf("empty ∪ empty = %v", into)
	}
	// Adopting a whole set is still a copy.
	into.union(pots, nil)
	into.add(1000)
	if pots.len() != 221 || into.len() != 222 {
		t.Errorf("union into the empty set aliased its argument: %d and %d members", pots.len(), into.len())
	}
}
