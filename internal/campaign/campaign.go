package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lasagne/internal/diag"
	"lasagne/internal/memmodel"
	"lasagne/internal/par"
)

// CheckerVersion namespaces persisted verdicts: bump it whenever the
// checker, the models, the mapping schemes or the canonical encoding change
// meaning, so stale verdicts can never satisfy a newer campaign.
const CheckerVersion = "lasagne-campaign-1"

// DefaultMapping is the verified chain: generated x86 programs, mapped
// through the IR into Arm, checked src-x86 vs tgt-Arm (Theorem 7.1).
const DefaultMapping = "x86→IR→arm"

func mapX86ToArm(p *memmodel.Program) *memmodel.Program {
	return memmodel.MapIRToArm(memmodel.MapX86ToIR(p))
}

// Options configures a campaign run.
type Options struct {
	// Bound is the per-thread operation bound of the generated family.
	Bound int
	// Workers caps checker goroutines; <=0 means one per CPU.
	Workers int
	// StateDir persists verdicts for incremental re-runs; empty keeps the
	// campaign in memory only.
	StateDir string
	// MaxVisitsPerCheck bounds each individual program check, counted in
	// enumeration nodes checked (see memmodel.Budget.MaxVisits; 0 =
	// unlimited). Checks cut off by this budget are counted in
	// Result.Unresolved and are not recorded, so they retry next run.
	MaxVisitsPerCheck int64
	// MaxChecks stops the campaign after that many new checks (0 =
	// unlimited). The kill-and-resume tests use it to simulate a crash at a
	// deterministic point; everything recorded before the stop is durable.
	MaxChecks int64
	// Progress, when non-nil, receives periodic snapshots from a single
	// reporter goroutine (never concurrently).
	Progress func(Snapshot)
	// ProgressEvery is the reporting period (default 2s).
	ProgressEvery time.Duration
}

// Snapshot is one progress observation.
type Snapshot struct {
	Generated int64 // orbit members generated so far
	Total     int64 // total orbit members the campaign will generate
	Checked   int64 // programs actually checked this run
	Hits      int64 // verdicts satisfied from the store
	Elapsed   time.Duration
}

// Finding is one unsound verdict.
type Finding struct {
	FP  Fingerprint
	Msg string
}

// Result summarizes a campaign run.
type Result struct {
	Bound      int
	Generated  int64 // programs generated (orbit members), pre-pruning
	Orbits     int64 // distinct canonical programs presented (new + hit)
	Checked    int64 // checked this run (ClaimNew and not cut off)
	Hits       int64 // verdicts loaded from a previous run
	Dups       int64 // in-run duplicate orbit members pruned
	Unresolved int64 // checks cut off by budget or MaxChecks; retried next run
	Stopped    bool  // MaxChecks tripped before generation finished
	Unsound    []Finding
	Elapsed    time.Duration
}

// PruneFactor is generated-per-checked-orbit: how much work symmetry
// reduction removed before any checker ran.
func (r *Result) PruneFactor() float64 {
	if r.Orbits == 0 {
		return 0
	}
	return float64(r.Generated) / float64(r.Orbits)
}

// TotalPrograms returns the size of the generated family at the bound:
// skeleton pairs (i, j) with i <= j.
func TotalPrograms(bound int) int64 {
	n := int64(len(memmodel.X86ThreadSkeletons(bound)))
	return n * (n + 1) / 2
}

// Run executes one campaign: stream the bound's program family, prune by
// canonical fingerprint, check each new orbit representative under the
// default x86→IR→Arm chain, and (with a state dir) persist every verdict.
func Run(ctx context.Context, opts Options) (*Result, error) {
	if opts.Bound <= 0 {
		return nil, fmt.Errorf("campaign: bound must be positive, got %d", opts.Bound)
	}
	store, err := OpenStore(opts.StateDir, Meta{CheckerVersion: CheckerVersion, Mapping: DefaultMapping})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return run(ctx, opts, store)
}

func run(ctx context.Context, opts Options, store *Store) (*Result, error) {
	start := time.Now()
	skels := memmodel.X86ThreadSkeletons(opts.Bound)
	nSkel := len(skels)
	total := int64(nSkel) * int64(nSkel+1) / 2
	workers := par.Workers(opts.Workers)

	var generated, orbits, checked, hits, dups, unresolved atomic.Int64
	var stopped atomic.Bool
	var findMu sync.Mutex
	var findings []Finding

	// Single reporter goroutine: progress is observed via atomics and
	// emitted from one place, so lines never interleave regardless of the
	// worker count.
	reporterDone := make(chan struct{})
	var reporterWG sync.WaitGroup
	if opts.Progress != nil {
		every := opts.ProgressEvery
		if every <= 0 {
			every = 2 * time.Second
		}
		reporterWG.Add(1)
		go func() {
			defer reporterWG.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-reporterDone:
					return
				case <-t.C:
					opts.Progress(Snapshot{
						Generated: generated.Load(),
						Total:     total,
						Checked:   checked.Load(),
						Hits:      hits.Load(),
						Elapsed:   time.Since(start),
					})
				}
			}
		}()
	}

	type worker struct {
		canon *Canonicalizer
		sc    *memmodel.CheckScratch
	}
	pool := sync.Pool{New: func() any {
		return &worker{canon: NewCanonicalizer(), sc: memmodel.NewCheckScratch()}
	}}

	// Work unit = one outer skeleton index; its row pairs it with every
	// skeleton at or after it. Rows shrink as i grows, but the pool's
	// dynamic index assignment keeps workers busy until the tail.
	par.For(nSkel, workers, func(i int) {
		if stopped.Load() || ctx.Err() != nil {
			return
		}
		w := pool.Get().(*worker)
		defer pool.Put(w)
		threads := [2][]Op{skels[i], nil}
		for j := i; j < nSkel; j++ {
			if stopped.Load() {
				return
			}
			if ctx.Err() != nil {
				stopped.Store(true)
				return
			}
			generated.Add(1)
			threads[1] = skels[j]
			canon, _ := w.canon.Canonical(threads[:])
			fp := w.canon.Fingerprint(canon)
			claim, _ := store.ClaimFP(fp)
			switch claim {
			case ClaimDup:
				dups.Add(1)
				continue
			case ClaimHit:
				orbits.Add(1)
				hits.Add(1)
				continue
			}
			orbits.Add(1)
			if opts.MaxChecks > 0 && checked.Load() >= opts.MaxChecks {
				// Claimed but never checked: in-memory only, so the next
				// run presents the fingerprint again. Nothing is lost.
				unresolved.Add(1)
				stopped.Store(true)
				return
			}
			p := ownedProgram(fp, canon)
			b := memmodel.Budget{Ctx: ctx, MaxVisits: opts.MaxVisitsPerCheck}
			err := memmodel.CheckMappingScratch(p, memmodel.X86, mapX86ToArm, memmodel.Arm, b, w.sc)
			switch {
			case err == nil:
				checked.Add(1)
				store.Record(fp, StatusSound, "")
			case errors.Is(err, diag.ErrBudgetExceeded):
				// No verdict: partial behavior sets prove nothing. Leave
				// unrecorded so a roomier run retries it.
				unresolved.Add(1)
			default:
				checked.Add(1)
				store.Record(fp, StatusUnsound, err.Error())
				findMu.Lock()
				findings = append(findings, Finding{FP: fp, Msg: err.Error()})
				findMu.Unlock()
			}
		}
	})

	close(reporterDone)
	reporterWG.Wait()
	if err := store.Flush(); err != nil {
		return nil, fmt.Errorf("campaign: persisting verdicts: %w", err)
	}

	// Findings must be identical between a cold run and a warm re-run, so
	// hits re-surface their stored counterexamples and the list is sorted
	// by fingerprint (check completion order is nondeterministic).
	seen := make(map[Fingerprint]bool, len(findings))
	for _, f := range findings {
		seen[f.FP] = true
	}
	for i := range store.shards {
		sh := &store.shards[i]
		sh.mu.Lock()
		for fp, e := range sh.m {
			if e.status == StatusUnsound && !e.pending && !seen[fp] {
				findings = append(findings, Finding{FP: fp, Msg: sh.msgs[fp]})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(findings, func(a, b int) bool {
		return bytesLess(findings[a].FP, findings[b].FP)
	})

	res := &Result{
		Bound:      opts.Bound,
		Generated:  generated.Load(),
		Orbits:     orbits.Load(),
		Checked:    checked.Load(),
		Hits:       hits.Load(),
		Dups:       dups.Load(),
		Unresolved: unresolved.Load(),
		Stopped:    stopped.Load(),
		Unsound:    findings,
		Elapsed:    time.Since(start),
	}
	if err := ctx.Err(); err != nil {
		return res, fmt.Errorf("campaign interrupted: %w", err)
	}
	return res, nil
}

func bytesLess(a, b Fingerprint) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ownedProgram builds a standalone Program over the canonicalizer-owned
// thread slices. The checker only reads the threads during the check, and
// the canonicalizer is not reused until the check returns, so sharing the
// storage is safe and saves a copy per new orbit.
func ownedProgram(fp Fingerprint, canon [][]Op) *memmodel.Program {
	return &memmodel.Program{Name: "c" + fp.String()[:12], Threads: canon}
}
