package eval

import (
	"context"
	"fmt"
	"math"
	"strings"

	"lasagne/internal/par"
	"lasagne/internal/phoenix"
)

func mathPow(x, e float64) float64 { return math.Pow(x, e) }

// Suite runs the full evaluation over all benchmarks.
type Suite struct {
	Results []*Result
}

// RunSuiteContext builds and simulates every benchmark variant, every
// simulation bounded by ctx (builds are not interruptible, only simulations
// poll the context). On expiry the suite fails with an error wrapping
// diag.ErrBudgetExceeded instead of running to completion. Benchmarks are
// processed concurrently on up to Parallelism workers; results land in
// index-fixed slots, so Results keeps the phoenix.All() order regardless of
// completion order and the rendered figures are identical to a serial run.
func RunSuiteContext(ctx context.Context) (*Suite, error) {
	benches := phoenix.All()
	s := &Suite{Results: make([]*Result, len(benches))}
	if err := par.FirstErr(len(benches), Parallelism, func(i int) error {
		r, err := BuildAll(benches[i])
		if err != nil {
			return err
		}
		if err := r.RunAllContext(ctx); err != nil {
			return err
		}
		s.Results[i] = r
		return nil
	}); err != nil {
		return nil, err
	}
	return s, nil
}

// Table1 renders the benchmark inventory (paper Table 1).
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Phoenix multi-threaded benchmark suite (minic ports)\n")
	fmt.Fprintf(&sb, "%-20s %-6s %-11s %s\n", "Benchmark", "Abbrv", "#Functions", "LoC")
	for _, b := range phoenix.All() {
		fmt.Fprintf(&sb, "%-20s %-6s %-11d %d\n", b.Name, b.Abbrev, b.Functions(), b.LoC())
	}
	return sb.String()
}

// Fig12 renders normalized runtimes (paper Fig. 12; lower is better).
func (s *Suite) Fig12() string {
	var sb strings.Builder
	sb.WriteString("Figure 12: runtime normalized to Native (simulated cycles; lower is better)\n")
	fmt.Fprintf(&sb, "%-20s", "Benchmark")
	for v := Variant(0); v < NumVariants; v++ {
		fmt.Fprintf(&sb, "%10s", v)
	}
	sb.WriteString("\n")
	norms := make([][]float64, NumVariants)
	for _, r := range s.Results {
		fmt.Fprintf(&sb, "%-20s", r.Bench.Abbrev)
		for v := Variant(0); v < NumVariants; v++ {
			n := float64(r.Cycles[v]) / float64(r.Cycles[Native])
			norms[v] = append(norms[v], n)
			fmt.Fprintf(&sb, "%10.2f", n)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-20s", "GMean")
	for v := Variant(0); v < NumVariants; v++ {
		fmt.Fprintf(&sb, "%10.2f", GeoMean(norms[v]))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Fig13 renders the pointer-cast reduction from IR refinement (Fig. 13).
func (s *Suite) Fig13() string {
	var sb strings.Builder
	sb.WriteString("Figure 13: pointer casts removed by IR refinement (%)\n")
	fmt.Fprintf(&sb, "%-20s %10s %10s %12s\n", "Benchmark", "lifted", "refined", "reduction")
	var vals []float64
	for _, r := range s.Results {
		red := 100 * float64(r.CastsRaw-r.CastsRef) / float64(r.CastsRaw)
		vals = append(vals, red)
		fmt.Fprintf(&sb, "%-20s %10d %10d %11.1f%%\n", r.Bench.Abbrev, r.CastsRaw, r.CastsRef, red)
	}
	fmt.Fprintf(&sb, "%-20s %33.1f%%\n", "GMean", GeoMean(vals))
	return sb.String()
}

// Fig14 renders the fence reduction of POpt and PPOpt relative to the naive
// placement (Fig. 14).
func (s *Suite) Fig14() string {
	var sb strings.Builder
	sb.WriteString("Figure 14: fence reduction relative to naive placement (%)\n")
	fmt.Fprintf(&sb, "%-20s %8s %8s %8s %10s %10s\n",
		"Benchmark", "Lifted", "POpt", "PPOpt", "POpt-red", "PPOpt-red")
	var pv, qv []float64
	for _, r := range s.Results {
		lf := r.Builds[Lifted].Fences
		pf := r.Builds[POpt].Fences
		qf := r.Builds[PPOpt].Fences
		pr := 100 * float64(lf-pf) / float64(lf)
		qr := 100 * float64(lf-qf) / float64(lf)
		pv = append(pv, pr)
		qv = append(qv, qr)
		fmt.Fprintf(&sb, "%-20s %8d %8d %8d %9.1f%% %9.1f%%\n", r.Bench.Abbrev, lf, pf, qf, pr, qr)
	}
	fmt.Fprintf(&sb, "%-20s %36.1f%% %9.1f%%\n", "GMean", GeoMean(pv), GeoMean(qv))
	return sb.String()
}

// Fig15 measures the runtime reduction of fence optimization alone on the
// unoptimized lifted code (Fig. 15).
func (s *Suite) Fig15() (string, error) {
	var sb strings.Builder
	sb.WriteString("Figure 15: runtime reduction from fence reduction alone (%)\n")
	fmt.Fprintf(&sb, "%-20s %12s %12s\n", "Benchmark", "POpt", "PPOpt")
	var pv, qv []float64
	for _, r := range s.Results {
		naive, merged, refined, err := FenceOnlyCycles(r)
		if err != nil {
			return "", err
		}
		pr := 100 * float64(naive-merged) / float64(naive)
		qr := 100 * float64(naive-refined) / float64(naive)
		pv = append(pv, math.Max(pr, 0.01))
		qv = append(qv, math.Max(qr, 0.01))
		fmt.Fprintf(&sb, "%-20s %11.2f%% %11.2f%%\n", r.Bench.Abbrev, pr, qr)
	}
	fmt.Fprintf(&sb, "%-20s %11.2f%% %11.2f%%\n", "GMean", GeoMean(pv), GeoMean(qv))
	return sb.String(), nil
}

// Fig16 renders the code size increase relative to native compilation
// (Fig. 16), in IR instructions.
func (s *Suite) Fig16() string {
	var sb strings.Builder
	sb.WriteString("Figure 16: code size increase vs native (%, IR instructions)\n")
	fmt.Fprintf(&sb, "%-20s", "Benchmark")
	for v := Lifted; v < NumVariants; v++ {
		fmt.Fprintf(&sb, "%10s", v)
	}
	sb.WriteString("\n")
	incs := make([][]float64, NumVariants)
	for _, r := range s.Results {
		nat := float64(r.Builds[Native].IRInstrs)
		fmt.Fprintf(&sb, "%-20s", r.Bench.Abbrev)
		for v := Lifted; v < NumVariants; v++ {
			inc := 100 * (float64(r.Builds[v].IRInstrs) - nat) / nat
			incs[v] = append(incs[v], inc)
			fmt.Fprintf(&sb, "%9.1f%%", inc)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-20s", "GMean")
	for v := Lifted; v < NumVariants; v++ {
		fmt.Fprintf(&sb, "%9.1f%%", GeoMean(incs[v]))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Fig17 renders the per-pass isolated code reduction on kmeans (Fig. 17).
func (s *Suite) Fig17() (string, error) {
	var target *Result
	for _, r := range s.Results {
		if r.Bench.Abbrev == "KM" {
			target = r
		}
	}
	if target == nil {
		return "", fmt.Errorf("kmeans result missing")
	}
	red, err := PassIsolation(target, Fig17Passes)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("Figure 17: code reduction on kmeans, each pass in isolation (%)\n")
	for _, p := range Fig17Passes {
		fmt.Fprintf(&sb, "%-14s %6.1f%%\n", p, red[p])
	}
	return sb.String(), nil
}
