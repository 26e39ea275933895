package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lasagne/internal/campaign"
	"lasagne/internal/diag"
	"lasagne/internal/memmodel"
)

// litmus-b3: the bound-3 litmus campaign over the x86→IR→Arm mapping chain,
// run cold on a fresh verdict store and then warm on the same store.

const (
	litmusBound  = 3
	litmusSetups = 9
	// litmusWarm is how many warm runs follow each cold run: a warm run is
	// ~20× shorter, so one per cold run leaves its median too few samples.
	litmusWarm = 5
)

// litmusState is the prepared input: the bound's thread skeletons (the
// family is every pair of them) and a directory for state stores.
type litmusState struct {
	dir   string
	skels [][]memmodel.Op
	total int64 // programs in the family: skeleton pairs (i, j), i <= j
	n     int   // state directories handed out
}

// fresh returns a new, empty state directory.
func (s *litmusState) fresh() (string, error) {
	s.n++
	d := filepath.Join(s.dir, fmt.Sprintf("state-%d", s.n))
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

func runLitmusB3(ctx context.Context, env *Env) (*Outcome, error) {
	setups := 0
	st, teardown, setupS, err := repeatSetup(litmusSetups, func() (*litmusState, func(), error) {
		setups++
		dir := filepath.Join(env.Dir, fmt.Sprintf("litmus-%d", setups))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		skels := memmodel.X86ThreadSkeletons(litmusBound)
		n := int64(len(skels))
		s := &litmusState{dir: dir, skels: skels, total: n * (n + 1) / 2}
		return s, func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	if env.Trace {
		return traceLitmus(ctx, env, st)
	}

	out := newOutcome()
	var cold, warm, coldRaw, warmRaw Samples
	var allocs []float64
	var programs int64
	err = measureUntil(ctx, env.Seconds, func() error {
		dir, err := st.fresh()
		if err != nil {
			return err
		}
		runtime.GC()
		var c, w *campaign.Result
		var cerr, werr error
		raw, d, mb := timed(func() { c, cerr = campaign.Run(ctx, campaign.Options{Bound: litmusBound, StateDir: dir}) })
		if cerr != nil {
			out.Tally.Fail(FailError, "cold campaign: %v", cerr)
			return nil
		}
		cold = append(cold, d)
		coldRaw = append(coldRaw, raw)
		allocs = append(allocs, mb)
		programs += c.Generated
		for i := 0; i < litmusWarm; i++ {
			runtime.GC()
			raw, d, _ = timed(func() { w, werr = campaign.Run(ctx, campaign.Options{Bound: litmusBound, StateDir: dir}) })
			if werr != nil {
				out.Tally.Fail(FailError, "warm campaign: %v", werr)
				return nil
			}
			warm = append(warm, d)
			warmRaw = append(warmRaw, raw)
			programs += w.Generated
			litmusGates(&out.Tally, st.total, c, w)
		}
		if len(cold) == 1 {
			out.Report["generated"] = c.Generated
			out.Report["orbits"] = c.Orbits
			out.Report["prune_factor"] = c.PruneFactor()
			out.Report["cold_checked"] = c.Checked
			out.Report["warm_hits"] = w.Hits
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	busy := cold.Sum() + warm.Sum()
	out.E2E["setup_s"] = setupS
	out.E2E["latency_ms_p50"] = cold.MedianMs()
	out.E2E["latency2_ms_p50"] = warm.MedianMs()
	out.E2E["alloc_mb_per_op"] = median(allocs)
	if busy > 0 {
		out.E2E["work_per_s"] = float64(programs) / busy.Seconds()
	}
	out.Report["pairs"] = len(cold)
	out.Report["campaign_cold_s"] = cold.MedianMs() / 1e3
	out.Report["campaign_warm_s"] = warm.MedianMs() / 1e3
	out.Report["raw_campaign_cold_s"] = coldRaw.MedianMs() / 1e3
	out.Report["raw_campaign_warm_s"] = warmRaw.MedianMs() / 1e3
	out.Report["setup_s"] = setupS
	return out, nil
}

// litmusGates checks one cold/warm pair: nothing unsound or unresolved, the
// whole family generated, and the warm run answering every cold orbit from
// the store.
func litmusGates(t *Tally, total int64, c, w *campaign.Result) {
	for _, r := range []*campaign.Result{c, w} {
		t.Gate(len(r.Unsound) == 0, "%d unsound mappings", len(r.Unsound))
		t.Gate(r.Unresolved == 0, "%d unresolved checks", r.Unresolved)
		t.Gate(r.Generated == total, "generated %d of %d programs", r.Generated, total)
	}
	t.Gate(w.Hits == c.Orbits && w.Checked == 0, "warm run: %d hits, %d checked; cold orbits %d", w.Hits, w.Checked, c.Orbits)
}

// replayed is what one traced campaign replay saw.
type replayed struct {
	generated, orbits, checks, hits, unsound int64
}

// replayCampaign drives one campaign serially through the public layer
// functions — Canonicalizer.CanonicalProgram, Store.ClaimFP,
// memmodel.CheckMappingScratch, Store.Record, Store.Flush — in the order
// campaign.Run calls them, with a span around each call.
func replayCampaign(ctx context.Context, tr *Tracer, root, dir string, skels [][]memmodel.Op) (replayed, error) {
	var r replayed
	tr.Begin(root)
	defer tr.End()
	var store *campaign.Store
	var err error
	tr.Do("campaign.open", func() {
		store, err = campaign.OpenStore(dir, campaign.Meta{CheckerVersion: campaign.CheckerVersion, Mapping: campaign.DefaultMapping})
	})
	if err != nil {
		return r, err
	}
	defer store.Close()
	canon := campaign.NewCanonicalizer()
	sc := memmodel.NewCheckScratch()
	mapping := func(p *memmodel.Program) *memmodel.Program { return memmodel.MapIRToArm(memmodel.MapX86ToIR(p)) }
	for i := range skels {
		if err := ctx.Err(); err != nil {
			return r, err
		}
		for j := i; j < len(skels); j++ {
			r.generated++
			var p *memmodel.Program
			var fp campaign.Fingerprint
			tr.Do("campaign.canon", func() { p, fp, _ = canon.CanonicalProgram([][]memmodel.Op{skels[i], skels[j]}) })
			var claim campaign.Claim
			tr.Do("campaign.claim", func() { claim, _ = store.ClaimFP(fp) })
			switch claim {
			case campaign.ClaimDup:
				continue
			case campaign.ClaimHit:
				r.orbits++
				r.hits++
				continue
			}
			r.orbits++
			var cerr error
			tr.Do("memmodel.check", func() {
				cerr = memmodel.CheckMappingScratch(p, memmodel.X86, mapping, memmodel.Arm, memmodel.Budget{Ctx: ctx}, sc)
			})
			r.checks++
			status, msg := campaign.StatusSound, ""
			if cerr != nil {
				if errors.Is(cerr, diag.ErrBudgetExceeded) {
					return r, cerr
				}
				status, msg = campaign.StatusUnsound, cerr.Error()
				r.unsound++
			}
			tr.Do("campaign.record", func() { err = store.Record(fp, status, msg) })
			if err != nil {
				return r, err
			}
		}
	}
	tr.Do("campaign.flush", func() { err = store.Flush() })
	return r, err
}

// traceLitmus is the traced run: one untraced single-worker cold campaign
// (the overhead baseline and the fidelity reference), then traced replays,
// cold on a fresh store and warm on the same store, until the window ends.
func traceLitmus(ctx context.Context, env *Env, st *litmusState) (*Outcome, error) {
	out := newOutcome()
	tr := NewTracer()
	out.Tracer = tr
	skels := st.skels

	dir, err := st.fresh()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ref, err := campaign.Run(ctx, campaign.Options{Bound: litmusBound, Workers: 1, StateDir: dir})
	untraced := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("reference campaign: %w", err)
	}

	var traced, tracedCold time.Duration
	var cold, warm replayed
	pairs := 0
	err = measureUntil(ctx, env.Seconds, func() error {
		dir, err := st.fresh()
		if err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		c, cerr := replayCampaign(ctx, tr, "campaign.cold", dir, skels)
		tracedCold += time.Since(start)
		w, werr := replayCampaign(ctx, tr, "campaign.warm", dir, skels)
		traced += time.Since(start)
		pairs++
		if err := errors.Join(cerr, werr); err != nil {
			out.Tally.Fail(FailError, "campaign replay: %v", err)
			return nil
		}
		out.Tally.Gate(c.unsound == 0 && w.unsound == 0, "%d unsound mappings", c.unsound+w.unsound)
		out.Tally.Gate(c.generated == ref.Generated && c.orbits == ref.Orbits && c.checks == ref.Checked,
			"trace fidelity: replay generated/orbits/checks %d/%d/%d, campaign.Run %d/%d/%d",
			c.generated, c.orbits, c.checks, ref.Generated, ref.Orbits, ref.Checked)
		out.Tally.Gate(w.hits == c.orbits && w.checks == 0, "warm replay: %d hits, %d checks; cold orbits %d", w.hits, w.checks, c.orbits)
		cold, warm = c, w
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}

	attributed := addLayerTimes(out.Layers, tr.Layers(), pairs)
	addTraceCoverage(out.Layers, traced, attributed, pairs)
	out.Layers["campaign.generated"] = float64(cold.generated)
	out.Layers["campaign.orbits"] = float64(cold.orbits)
	if cold.orbits > 0 {
		out.Layers["campaign.prune_factor"] = float64(cold.generated) / float64(cold.orbits)
		out.Layers["campaign.warm_hit_ratio"] = float64(warm.hits) / float64(cold.orbits)
	}
	out.Layers["memmodel.checks"] = float64(cold.checks)
	out.Layers["trace.overhead"] = float64(tracedCold) / float64(pairs) / float64(untraced)
	out.Report["pairs"] = pairs
	out.Report["reference_cold_workers1_s"] = untraced.Seconds()
	out.Report["traced_cold_s"] = tracedCold.Seconds() / float64(pairs)
	return out, nil
}
