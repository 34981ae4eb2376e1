package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// runSelfcheck runs the untraced suite twice on the same code and
// compares the two sets: exact counts must match bit for bit, every
// end-to-end metric must agree within its bound.
func runSelfcheck(o options) error {
	o.trace = false
	var rounds [2][]*result
	for i := range rounds {
		fmt.Printf("selfcheck: round %d\n", i+1)
		res, err := runAll(o)
		if err != nil {
			return err
		}
		rounds[i] = res
	}
	bad := 0
	fmt.Printf("\n%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "round 1", "round 2", "change", "bound")
	for i, a := range rounds[0] {
		b := rounds[1][i]
		for _, m := range endToEndMetrics {
			va, vb := a.Metrics[m.name].Value, b.Metrics[m.name].Value
			worse := (vb - va) / va
			if m.better == "higher" {
				worse = (va - vb) / va
			}
			// Either round may be the "parent": the pair disagrees when
			// one is worse than the other by more than the bound.
			if alt := -worse / (1 + worse); alt > worse {
				worse = alt
			}
			verdict := "ok"
			if worse > m.bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n", a.Workload, m.name, va, vb, worse*100, m.bound*100, verdict)
		}
		if sp, _ := findSpec(a.Workload); !sp.sequential {
			continue
		}
		keys := make([]string, 0, len(a.Exact))
		for k := range a.Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			verdict := "ok"
			if a.Exact[k] != b.Exact[k] {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %9s %7s  %s\n", a.Workload, k, a.Exact[k], b.Exact[k], "", "exact", verdict)
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, "selfcheck.json"), rounds); err != nil {
		return err
	}
	if bad != 0 {
		return fmt.Errorf("selfcheck: %d metric pairs disagree", bad)
	}
	fmt.Println("selfcheck: the two rounds agree within the bounds")
	return nil
}
