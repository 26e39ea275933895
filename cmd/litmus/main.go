// litmus explores litmus tests under the x86-TSO, Armv8 and LIMM axiomatic
// models, checks the paper's mapping schemes (Thm 7.1), and recomputes the
// Fig. 11a reordering table.
//
// Usage:
//
//	litmus                  # enumerate behaviors of the classic tests
//	litmus -check-mappings  # verify x86 -> IR -> Arm on the classics
//	litmus -exhaustive N    # bounded verification over generated programs
//	litmus -campaign N      # same, via the incremental campaign engine
//	litmus -fig11a          # recompute the reordering table
//
// -campaign (and -exhaustive, which now routes through the same engine)
// runs the bounded family through symmetry reduction first — only one
// representative per thread-permutation/renaming/fence-normalization orbit
// is checked — and, with -state-dir, persists every verdict keyed by
// canonical program fingerprint so interrupted campaigns resume and warm
// re-runs are ~100% fingerprint hits.
//
// The deterministic campaign summary (family size, orbit count, prune
// factor, verdicts) goes to stdout; progress and run-dependent timing go to
// stderr, so two runs over the same state produce byte-identical stdout.
//
// -timeout and -max-steps bound the enumeration (default: unbounded); when
// a budget trips, the command reports a partial-result error and exits 1
// rather than hanging.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"lasagne/internal/campaign"
	"lasagne/internal/diag"
	"lasagne/internal/memmodel"
)

func main() {
	checkMappings := flag.Bool("check-mappings", false, "verify the Fig. 8 mapping schemes")
	exhaustive := flag.Int("exhaustive", 0, "bounded mapping verification with N ops per thread")
	camp := flag.Int("campaign", 0, "incremental bounded mapping campaign with N ops per thread")
	stateDir := flag.String("state-dir", "", "verdict store directory for incremental campaigns (empty = in-memory only)")
	statsOut := flag.String("stats-out", "", "write campaign statistics (JSON) to this file")
	maxPrograms := flag.Int64("max-programs", 0, "stop the campaign after checking this many new programs (0 = unlimited)")
	fig11a := flag.Bool("fig11a", false, "recompute the Fig. 11a reordering table")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker pool size for the model checkers (1 = serial)")
	timeout := flag.Duration("timeout", 0,
		"deadline for the whole run; on expiry enumeration stops and a partial-result error is reported (default 0 = unbounded)")
	maxSteps := flag.Int64("max-steps", 0,
		"cap on enumeration nodes checked per behavior enumeration, partial or complete (default 0 = unlimited)")
	flag.Parse()

	memmodel.DefaultParallelism = *parallel

	ctx := context.Background()
	budget := memmodel.Budget{MaxVisits: *maxSteps}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		budget.Ctx = ctx
	}

	switch {
	case *fig11a:
		fmt.Println("Recomputing the Fig. 11a reordering table (bounded model checking)...")
		got := memmodel.ReorderTable()
		fmt.Print(memmodel.FormatTable(got))
		if got == memmodel.PaperReorderTable() {
			fmt.Println("matches the paper's table ✓")
		} else {
			fmt.Println("DIFFERS from the paper's table ✗")
			os.Exit(1)
		}

	case *checkMappings:
		failed := false
		for _, p := range memmodel.ClassicTests() {
			err1 := memmodel.CheckMappingBudget(p, memmodel.X86, memmodel.MapX86ToIR, memmodel.LIMM, budget)
			ir := memmodel.MapX86ToIR(p)
			err2 := memmodel.CheckMappingBudget(ir, memmodel.LIMM, memmodel.MapIRToArm, memmodel.Arm, budget)
			status := "ok"
			if err1 != nil || err2 != nil {
				failed = true
				status = fmt.Sprintf("FAIL (%v %v)", err1, err2)
				if errors.Is(err1, diag.ErrBudgetExceeded) || errors.Is(err2, diag.ErrBudgetExceeded) {
					status = fmt.Sprintf("PARTIAL — budget exhausted, no verdict (%v %v)", err1, err2)
				}
			}
			fmt.Printf("%-12s x86→IR→Arm: %s\n", p.Name, status)
		}
		if failed {
			os.Exit(1)
		}

	case *camp > 0 || *exhaustive > 0:
		bound := *camp
		if bound == 0 {
			bound = *exhaustive
		}
		os.Exit(runCampaign(ctx, bound, *parallel, *stateDir, *statsOut, *maxSteps, *maxPrograms))

	default:
		for _, p := range memmodel.ClassicTests() {
			fmt.Println(p)
			for _, m := range []memmodel.Model{memmodel.SC, memmodel.X86, memmodel.Arm, memmodel.LIMM} {
				bs, err := memmodel.BehaviorsOfBudget(p, m, true, budget)
				if err != nil {
					fmt.Fprintf(os.Stderr, "litmus: %s under %s: partial results only: %v\n", p.Name, m.Name, err)
					os.Exit(1)
				}
				keys := make([]string, 0, len(bs))
				for k := range bs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Printf("  %-5s %d behaviors\n", m.Name+":", len(keys))
				for _, k := range keys {
					fmt.Printf("        %s\n", k)
				}
			}
			fmt.Println()
		}
	}
}

// campaignStats is the -stats-out JSON shape. Run-dependent numbers
// (checked/hit split, timing) live here and on stderr, never on stdout.
type campaignStats struct {
	Bound       int     `json:"bound"`
	Generated   int64   `json:"generated"`
	Orbits      int64   `json:"orbits"`
	PruneFactor float64 `json:"prune_factor"`
	Checked     int64   `json:"checked"`
	Hits        int64   `json:"hits"`
	Dups        int64   `json:"dups"`
	Unresolved  int64   `json:"unresolved"`
	Unsound     int     `json:"unsound"`
	ElapsedMS   float64 `json:"elapsed_ms"`
}

// runCampaign drives the campaign engine, printing the deterministic
// summary on stdout and progress/timing on stderr. Returns the exit code.
func runCampaign(ctx context.Context, bound, workers int, stateDir, statsOut string, maxVisits, maxPrograms int64) int {
	// Progress is emitted by the engine's single reporter goroutine with
	// programs/sec and ETA; no per-worker printing, so lines never
	// interleave no matter the -parallel setting.
	start := time.Now()
	progress := func(s campaign.Snapshot) {
		done := s.Checked + s.Hits
		rate := float64(s.Generated) / s.Elapsed.Seconds()
		eta := "?"
		if s.Generated > 0 && s.Total > s.Generated {
			rem := time.Duration(float64(s.Total-s.Generated) / rate * float64(time.Second))
			eta = rem.Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "campaign: %d/%d generated (%.0f prog/s, ETA %s), %d verified (%d checked, %d cached)\n",
			s.Generated, s.Total, rate, eta, done, s.Checked, s.Hits)
	}

	res, err := campaign.Run(ctx, campaign.Options{
		Bound:             bound,
		Workers:           workers,
		StateDir:          stateDir,
		MaxVisitsPerCheck: maxVisits,
		MaxChecks:         maxPrograms,
		Progress:          progress,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "litmus: campaign failed: %v\n", err)
		return 1
	}

	// Deterministic summary: identical across cold and warm runs over the
	// same family and state.
	fmt.Printf("campaign bound %d: %d programs, %d orbits (%.2fx pruned by symmetry)\n",
		res.Bound, res.Generated, res.Orbits, res.PruneFactor())
	switch {
	case res.Stopped:
		fmt.Printf("stopped early: %d verdicts recorded, %d orbits left for the next run\n",
			res.Checked+res.Hits, res.Orbits-res.Checked-res.Hits)
	case res.Unresolved > 0:
		fmt.Printf("PARTIAL: %d orbits hit the per-check budget and carry no verdict\n", res.Unresolved)
	case len(res.Unsound) > 0:
		fmt.Printf("FAIL: %d unsound orbits\n", len(res.Unsound))
		for _, f := range res.Unsound {
			fmt.Printf("  %s: %s\n", f.FP, f.Msg)
		}
	default:
		fmt.Println("all mappings verified ✓")
	}
	fmt.Fprintf(os.Stderr, "campaign: %d checked, %d cache hits, %d in-run dups in %s\n",
		res.Checked, res.Hits, res.Dups, time.Since(start).Round(time.Millisecond))

	if statsOut != "" {
		stats := campaignStats{
			Bound:       res.Bound,
			Generated:   res.Generated,
			Orbits:      res.Orbits,
			PruneFactor: res.PruneFactor(),
			Checked:     res.Checked,
			Hits:        res.Hits,
			Dups:        res.Dups,
			Unresolved:  res.Unresolved,
			Unsound:     len(res.Unsound),
			ElapsedMS:   float64(res.Elapsed.Microseconds()) / 1000,
		}
		data, _ := json.MarshalIndent(stats, "", "  ")
		if err := os.WriteFile(statsOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "litmus: writing %s: %v\n", statsOut, err)
			return 1
		}
	}

	if len(res.Unsound) > 0 || res.Unresolved > 0 || res.Stopped {
		return 1
	}
	return 0
}
