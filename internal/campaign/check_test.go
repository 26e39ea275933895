package campaign

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"lasagne/internal/memmodel"
	"lasagne/internal/race"
)

// TestBrokenMappingReportedByRun shows that Run itself sees a broken
// mapping. With the trailing DMBFF after each RMW dropped from the campaign's
// rule (Fig. 10), a bound-2 campaign must report unsound exactly the orbits
// whose representatives CheckMapping reports unsound under the same mapping
// written at the program level over the allocating wrappers, with
// byte-equal messages.
func TestBrokenMappingReportedByRun(t *testing.T) {
	def := checkScheme
	t.Cleanup(func() { checkScheme = def })
	checkScheme = memmodel.Scheme{Suffix: def.Suffix, Rule: func(dst []Op, o Op) []Op {
		dst = def.Rule(dst, o)
		if o.Kind == memmodel.OpRMW {
			dst = dst[:len(dst)-1] // DMBFF ; RMW ; DMBFF -> DMBFF ; RMW
		}
		return dst
	}}
	dropTrailing := func(q *memmodel.Program) *memmodel.Program {
		out := memmodel.MapIRToArm(memmodel.MapX86ToIR(q))
		for ti, th := range out.Threads {
			var tt []Op
			for i, o := range th {
				if o.Kind == memmodel.OpFence && o.Fence == memmodel.DMBFF && i > 0 && th[i-1].Kind == memmodel.OpRMW {
					continue
				}
				tt = append(tt, o)
			}
			out.Threads[ti] = tt
		}
		return out
	}

	r, err := Run(context.Background(), Options{Bound: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	want := map[Fingerprint]string{}
	seen := map[Fingerprint]bool{}
	c := NewCanonicalizer()
	skels := memmodel.X86ThreadSkeletons(2)
	for i := range skels {
		for j := i; j < len(skels); j++ {
			p, fp, _ := c.CanonicalProgram([][]Op{skels[i], skels[j]})
			if seen[fp] {
				continue
			}
			seen[fp] = true
			if err := memmodel.CheckMapping(p, memmodel.X86, dropTrailing, memmodel.Arm); err != nil {
				want[fp] = err.Error()
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("CheckMapping finds the broken mapping sound on every bound-2 orbit")
	}
	if len(r.Unsound) != len(want) {
		t.Fatalf("Run reports %d unsound orbits, CheckMapping %d", len(r.Unsound), len(want))
	}
	for _, f := range r.Unsound {
		if f.Msg != want[f.FP] {
			t.Fatalf("orbit %x: Run says\n%s\nCheckMapping says\n%s", f.FP, f.Msg, want[f.FP])
		}
	}
}

// TestColdCampaignAllocBudget pins the allocation count of one cold bound-2
// campaign on a disk store with one worker. Canonicalization, the store's
// records and every check's mapping and folds run in per-worker or
// per-shard scratch, so what remains is the run's fixed set-up (skeletons,
// store shards and buffers, the worker) plus about two allocations per
// orbit: its program name and the store's map growth. That measured 1,148
// allocations for the 484 orbits, against 10,567 while every check mapped
// into fresh programs; the budget leaves less room than one more
// allocation per orbit.
func TestColdCampaignAllocBudget(t *testing.T) {
	if race.Enabled {
		// The race runtime drops sync.Pool items at random, so the worker
		// pool never stays warm and the count measures the detector.
		t.Skip("allocation counts are meaningless under -race")
	}
	dir := t.TempDir()
	n := 0
	allocs := testing.AllocsPerRun(1, func() {
		n++
		r, err := Run(context.Background(), Options{Bound: 2, Workers: 1, StateDir: filepath.Join(dir, fmt.Sprint(n))})
		if err != nil || r.Checked != 484 {
			t.Fatalf("cold bound-2 campaign: %v, %+v", err, r)
		}
	})
	const budget = 1400
	if allocs > budget {
		t.Errorf("%.0f allocs per cold bound-2 campaign, budget %d", allocs, budget)
	}
}

// BenchmarkCampaignCold times one cold bound-3 campaign with one worker on
// a fresh disk store per iteration: what perfbench's litmus-b3 workload
// times cold, as a benchmark `make profile-litmus` can profile.
func BenchmarkCampaignCold(b *testing.B) {
	dir := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := Run(context.Background(), Options{Bound: 3, Workers: 1, StateDir: filepath.Join(dir, fmt.Sprint(i))})
		if err != nil || r.Checked != 21904 {
			b.Fatalf("cold bound-3 campaign: %v, %+v", err, r)
		}
	}
}
