package eval

import (
	"context"
	"fmt"
	"strings"

	"lasagne/internal/par"
	"lasagne/internal/phoenix"
)

// LockFreeTableContext builds and simulates every variant of the
// lock-free extension kernels (phoenix.LockFree — the ROADMAP's lock-free
// structure ports, deliberately outside Table 1), every simulation bounded
// by ctx, and renders their normalized runtimes and static fence counts.
// These kernels synchronize through plain loads and stores instead of
// atomic RMWs, so they stress the fence placement in the opposite way from
// the Phoenix suite: every ordering the program needs must come from
// inserted fences, none from LOCK'd instructions.
func LockFreeTableContext(ctx context.Context) (string, error) {
	benches := phoenix.LockFree()
	results := make([]*Result, len(benches))
	if err := par.FirstErr(len(benches), Parallelism, func(i int) error {
		r, err := BuildAll(benches[i])
		if err != nil {
			return err
		}
		if err := r.RunAllContext(ctx); err != nil {
			return err
		}
		results[i] = r
		return nil
	}); err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString("Lock-free kernels: runtime normalized to Native and static fences\n")
	fmt.Fprintf(&sb, "%-14s", "Benchmark")
	for v := Variant(0); v < NumVariants; v++ {
		fmt.Fprintf(&sb, "%10s", v)
	}
	fmt.Fprintf(&sb, "%12s %8s %8s\n", "Fences(L)", "POpt", "PPOpt")
	for _, r := range results {
		fmt.Fprintf(&sb, "%-14s", r.Bench.Abbrev)
		for v := Variant(0); v < NumVariants; v++ {
			fmt.Fprintf(&sb, "%10.2f", float64(r.Cycles[v])/float64(r.Cycles[Native]))
		}
		fmt.Fprintf(&sb, "%12d %8d %8d\n",
			r.Builds[Lifted].Fences, r.Builds[POpt].Fences, r.Builds[PPOpt].Fences)
		// All five variants must agree on observable output: the kernels
		// self-check by printing their queue checksums.
		for v := Variant(1); v < NumVariants; v++ {
			if r.Output[v] != r.Output[Native] {
				return "", fmt.Errorf("lockfree %s: %s output %q differs from Native %q",
					r.Bench.Name, v, r.Output[v], r.Output[Native])
			}
		}
	}
	return sb.String(), nil
}
