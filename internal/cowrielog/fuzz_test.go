package cowrielog

import (
	"bytes"
	"testing"
)

// FuzzCowrieImport: whatever bytes a log holds, Import does not panic
// and returns either an error or a store. Plain go test runs the
// checked-in corpus only.
func FuzzCowrieImport(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		st, err := Import(bytes.NewReader(log))
		if (st == nil) == (err == nil) {
			t.Fatalf("Import returned a store (%v) and an error (%v)", st != nil, err)
		}
	})
}
