package lint

import (
	"go/ast"
)

// DeterministicPkgSuffixes lists the import-path suffixes of the
// packages under the determinism contract: everything on the
// record-level simulation and analysis path. Within these packages the
// global math/rand source and the wall clock are off limits — all
// randomness must flow through an explicitly seeded *rand.Rand and all
// timestamps must derive from the configured epoch, so that one seed
// always regenerates the identical dataset. The wire path (honeypot,
// sshwire, telnet, netsim) is exempt: it serves real connections and
// legitimately reads the clock.
var DeterministicPkgSuffixes = []string{
	"honeyfarm", // module root: Simulate and the artifact pipeline
	"cmd/loadgen",
	"internal/analysis",
	"internal/faults",
	"internal/geo",
	"internal/iofault",
	"internal/loadgen",
	"internal/malware",
	"internal/metrics",
	"internal/query",
	"internal/report",
	"internal/scenario",
	"internal/shard",
	"internal/stats",
	"internal/wal",
	"internal/wire",
	"internal/workload",
}

// deterministicPkg reports whether the package is under the determinism
// contract.
func deterministicPkg(path string) bool {
	for _, suffix := range DeterministicPkgSuffixes {
		if pathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// allowedRandNames are the math/rand selectors that do not touch the
// package-global source: constructors taking an explicit source or rand,
// and type names.
var allowedRandNames = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// allowedRandV2Names is the equivalent set for math/rand/v2, whose
// top-level functions draw from a process-global runtime-seeded state.
var allowedRandV2Names = map[string]bool{
	"New": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
	"Rand": true, "Source": true, "PCG": true, "ChaCha8": true, "Zipf": true,
}

// wallClockNames are the time package selectors that read the wall
// clock.
var wallClockNames = map[string]bool{"Now": true, "Since": true, "Until": true}

// Nondeterminism enforces the determinism contract: within the packages
// matching DeterministicPkgSuffixes, no use of the global math/rand
// source and no wall-clock reads.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "no global math/rand state or wall-clock reads in the simulation/analysis path",
	Run: func(p *Pass) {
		if !deterministicPkg(p.Pkg.Path) {
			return
		}
		inspect(p, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch importedPkgPath(p.Pkg.Info, sel.X) {
			case "math/rand":
				if !allowedRandNames[sel.Sel.Name] {
					p.Reportf(sel.Pos(), "rand.%s draws from the global math/rand source; thread an explicitly seeded *rand.Rand instead", sel.Sel.Name)
				}
			case "math/rand/v2":
				if !allowedRandV2Names[sel.Sel.Name] {
					p.Reportf(sel.Pos(), "rand.%s draws from the process-global rand/v2 state; thread an explicitly seeded *rand.Rand instead", sel.Sel.Name)
				}
			case "time":
				if wallClockNames[sel.Sel.Name] {
					p.Reportf(sel.Pos(), "time.%s reads the wall clock in a deterministic package; derive timestamps from the configured epoch", sel.Sel.Name)
				}
			}
			return true
		})
	},
}
