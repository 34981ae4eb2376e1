// Package storeseam enforces the memory-seam invariant of the hardware
// model: functional datapath code reaches a membus.Region only through
// its *membus.Port, never through the region's Peek/Poke debug ports
// outside audit/debug files.
//
// The port is what makes the fabric's guarantees hold: every access
// that goes through it is scheduled by the per-cycle bank/port arbiter,
// counted in the region and bank statistics, charged to the clock, and
// offered to the fault observer. A Peek on a functional path dodges all
// four — the paper's cycle/access guarantees stop being measured and
// the fault campaign under-covers that path. Audit and debug code is
// the deliberate exception: scrub engines observe the physical array
// through Peek precisely so they do not perturb the traffic accounting,
// which is why Peek is legal only in audit*/debug*/dump* files.
package storeseam

import (
	"go/ast"
	"go/types"
	"strings"

	"wfqsort/internal/analysis"
)

// MembusPath is the import path of the memory fabric whose Region
// carries the debug ports.
const MembusPath = "wfqsort/internal/membus"

// DatapathPackages lists the functional datapath packages the invariant
// applies to. Tests may add testdata packages loaded under other paths.
var DatapathPackages = map[string]bool{
	"wfqsort/internal/trie":       true,
	"wfqsort/internal/taglist":    true,
	"wfqsort/internal/transtable": true,
	"wfqsort/internal/core":       true,
}

// Analyzer is the storeseam analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "storeseam",
	Doc: "functional datapath code reaches a membus.Region through its " +
		"Port; Peek/Poke debug ports only in audit/debug files",
	Run: run,
}

// debugFile reports whether base is a file where debug-port access is
// legitimate: the audit/debug/dump files and tests.
func debugFile(base string) bool {
	return strings.HasPrefix(base, "audit") ||
		strings.HasPrefix(base, "debug") ||
		strings.HasPrefix(base, "dump") ||
		strings.HasSuffix(base, "_test.go")
}

// peekSignature reports whether sig is the debug-port shape
// func(int) (uint64, error) or func(int, uint64) error.
func peekSignature(sig *types.Signature) bool {
	p, r := sig.Params(), sig.Results()
	switch {
	case p.Len() == 1 && r.Len() == 2: // Peek
		return isInt(p.At(0).Type()) && isUint64(r.At(0).Type()) && isError(r.At(1).Type())
	case p.Len() == 2 && r.Len() == 1: // Poke
		return isInt(p.At(0).Type()) && isUint64(p.At(1).Type()) && isError(r.At(0).Type())
	}
	return false
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

func isUint64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

func isError(t types.Type) bool {
	return t.String() == "error"
}

func run(pass *analysis.Pass) error {
	if !DatapathPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			recv := pass.TypeOf(sel.X)
			if recv == nil {
				return true
			}
			if (fn.Name() != "Peek" && fn.Name() != "Poke") || !peekSignature(sig) {
				return true
			}
			if !analysis.IsNamed(recv, MembusPath, "Region") && !isDebugPortInterface(recv) {
				return true
			}
			if base := pass.Filename(call.Pos()); !debugFile(base) {
				pass.Reportf(call.Pos(),
					"%s debug port used in functional file %s (uncounted, unclocked, unobserved access); move to an audit*/debug* file or use the region's Port",
					fn.Name(), base)
			}
			return true
		})
	}
	return nil
}

// isDebugPortInterface reports whether t is an interface exposing a
// Peek/Poke-shaped method (the trie's peeker abstraction, for example).
func isDebugPortInterface(t types.Type) bool {
	iface, ok := analysis.Deref(t).Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		name := m.Name()
		if (name == "Peek" || name == "Poke") && peekSignature(m.Type().(*types.Signature)) {
			return true
		}
	}
	return false
}
