package analysis

import "math/bits"

// intSet is a set of ints: 64-member bitmap chunks sorted by key, where
// member v is bit v&63 of the chunk keyed v>>6 (an arithmetic shift, so
// negative members work). No chunk is empty, so the set costs 16 bytes
// per occupied 64-aligned window whatever the values — 221 pots are at
// most 4 chunks, 486 days at most 8, and one member near 1<<40 is one.
// The zero value is the empty set.
type intSet []intChunk

type intChunk struct {
	key  int
	bits uint64
}

// find returns where the chunk keyed key is, or where it would go.
func (s intSet) find(key int) (i int, ok bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].key == key
}

// add puts v in the set and reports whether it was not there before.
func (s *intSet) add(v int) (fresh bool) {
	key, bit := v>>6, uint64(1)<<(uint(v)&63)
	cs := *s
	i, ok := cs.find(key)
	if ok {
		fresh = cs[i].bits&bit == 0
		cs[i].bits |= bit
		return fresh
	}
	cs = append(cs, intChunk{})
	copy(cs[i+1:], cs[i:])
	cs[i] = intChunk{key: key, bits: bit}
	*s = cs
	return true
}

// push appends v, larger than every member, and returns the set: how a
// set is assembled from ascending members without a search.
func (s intSet) push(v int) intSet {
	if last := len(s) - 1; last >= 0 && s[last].key == v>>6 {
		s[last].bits |= 1 << (uint(v) & 63)
		return s
	}
	return append(s, intChunk{key: v >> 6, bits: 1 << (uint(v) & 63)})
}

// union adds o's members and calls onFresh (which may be nil) once for
// each that was not there before, ascending. o is only read and the
// result shares no memory with it.
func (s *intSet) union(o intSet, onFresh func(int)) {
	cs := *s
	missing := 0
	for i, j := 0, 0; j < len(o); j++ {
		for i < len(cs) && cs[i].key < o[j].key {
			i++
		}
		if i == len(cs) || cs[i].key != o[j].key {
			missing++
		}
	}
	if missing > 0 {
		// Same keys as before plus empty chunks for o's others; the
		// pass below fills them.
		merged := make(intSet, 0, len(cs)+missing)
		i := 0
		for _, oc := range o {
			for i < len(cs) && cs[i].key < oc.key {
				merged = append(merged, cs[i])
				i++
			}
			if i == len(cs) || cs[i].key != oc.key {
				merged = append(merged, intChunk{key: oc.key})
			}
		}
		cs = append(merged, cs[i:]...)
		*s = cs
	}
	i := 0
	for _, oc := range o {
		for cs[i].key < oc.key {
			i++
		}
		fresh := oc.bits &^ cs[i].bits
		cs[i].bits |= fresh
		for ; fresh != 0 && onFresh != nil; fresh &= fresh - 1 {
			onFresh(oc.key<<6 | bits.TrailingZeros64(fresh))
		}
	}
}

// len returns the number of members.
func (s intSet) len() int {
	n := 0
	for _, c := range s {
		n += bits.OnesCount64(c.bits)
	}
	return n
}

// each calls f for every member, ascending.
func (s intSet) each(f func(int)) {
	for _, c := range s {
		for b := c.bits; b != 0; b &= b - 1 {
			f(c.key<<6 | bits.TrailingZeros64(b))
		}
	}
}

// min returns the smallest member, 0 for the empty set.
func (s intSet) min() int {
	if len(s) == 0 {
		return 0
	}
	return s[0].key<<6 | bits.TrailingZeros64(s[0].bits)
}

// max returns the largest member, 0 for the empty set.
func (s intSet) max() int {
	if len(s) == 0 {
		return 0
	}
	c := s[len(s)-1]
	return c.key<<6 | (63 - bits.LeadingZeros64(c.bits))
}
