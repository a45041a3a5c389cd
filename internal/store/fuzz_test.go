package store

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL: whatever bytes a dump holds, ReadJSONLWith does not
// panic under either AllowTornTail value, returns either an error or a
// store holding the records its report counts, and a dump the strict
// reader accepts the tolerant one reads identically. Plain go test runs
// the checked-in corpus only.
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, dump []byte) {
		var lens [2]int
		for i, torn := range []bool{false, true} {
			s, rep, err := ReadJSONLWith(bytes.NewReader(dump), ReadJSONLOptions{AllowTornTail: torn})
			if (s == nil) == (err == nil) {
				t.Fatalf("AllowTornTail=%v: store (%v) and error (%v)", torn, s != nil, err)
			}
			if s == nil {
				lens[i] = -1
				continue
			}
			if s.Len() != rep.Records {
				t.Fatalf("AllowTornTail=%v: store holds %d records, report says %d", torn, s.Len(), rep.Records)
			}
			lens[i] = s.Len()
		}
		if lens[0] >= 0 && lens[1] != lens[0] {
			t.Fatalf("strict read %d records, tolerant read %d", lens[0], lens[1])
		}
	})
}
