package lint

import "testing"

// TestSelfClean runs the full analyzer suite over this module and
// asserts zero findings — the repository must stay lint-clean. New
// violations either get fixed or carry an explicit reasoned
// //lint:ignore directive.
func TestSelfClean(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewLoader(root).Check(CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packages < 10 {
		t.Fatalf("analyzed only %d packages; the module has far more — loader regression?", res.Packages)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
}

// TestSelfFacts spot-checks fact propagation over the real module: the
// WAL's batch append must carry durable-write and fsync facts, and the
// query engine's seal must carry a publish fact. These anchor the
// cross-package rules to the code they exist to protect.
func TestSelfFacts(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewLoader(root).Check(CheckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key  string
		get  func(FuncFacts) string
		what string
	}{
		{"(*honeyfarm/internal/wal.Log).AppendTagged", func(f FuncFacts) string { return f.Durable }, "durable"},
		{"(*honeyfarm/internal/wal.Log).AppendTagged", func(f FuncFacts) string { return f.Fsync }, "fsync"},
		{"(*honeyfarm/internal/wal.Log).Close", func(f FuncFacts) string { return f.Fsync }, "fsync"},
		{"(*honeyfarm/internal/query.Sink).Ingest", func(f FuncFacts) string { return f.Fsync }, "fsync"},
	} {
		ff, ok := res.Facts.Lookup(tc.key)
		if !ok {
			t.Errorf("no facts recorded for %s", tc.key)
			continue
		}
		if tc.get(ff) == "" {
			t.Errorf("%s: missing %s fact (have %+v)", tc.key, tc.what, ff)
		}
	}
	// The engine seals snapshots through atomic.Pointer.Store.
	found := false
	for _, key := range res.Facts.sortedFactKeys() {
		ff, _ := res.Facts.Lookup(key)
		if ff.Publishes != "" && len(key) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no function in the module carries a publish fact; the query engine seal should")
	}
}
