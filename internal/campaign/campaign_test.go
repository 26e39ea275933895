package campaign

import (
	"context"
	"fmt"
	"testing"
	"time"

	"lasagne/internal/memmodel"
)

// TestColdWarmIncremental runs the bound-2 campaign twice against one state
// directory: the warm run must check nothing, hit on every orbit, and
// produce an identical deterministic summary (generated, orbits, prune,
// findings).
func TestColdWarmIncremental(t *testing.T) {
	dir := t.TempDir()
	cold, err := Run(context.Background(), Options{Bound: 2, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Checked != cold.Orbits || cold.Hits != 0 {
		t.Fatalf("cold run: checked=%d hits=%d orbits=%d, want checked==orbits, hits==0",
			cold.Checked, cold.Hits, cold.Orbits)
	}
	if cold.PruneFactor() < 2 {
		t.Fatalf("prune factor %.2f < 2: symmetry reduction is not pulling its weight", cold.PruneFactor())
	}
	warm, err := Run(context.Background(), Options{Bound: 2, Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Checked != 0 {
		t.Fatalf("warm run rechecked %d programs", warm.Checked)
	}
	if warm.Hits != warm.Orbits {
		t.Fatalf("warm run: hits=%d orbits=%d, want 100%% hits", warm.Hits, warm.Orbits)
	}
	if warm.Generated != cold.Generated || warm.Orbits != cold.Orbits || warm.Dups != cold.Dups {
		t.Fatalf("summary drift between runs: cold=%+v warm=%+v", cold, warm)
	}
	if fmt.Sprint(warm.Unsound) != fmt.Sprint(cold.Unsound) {
		t.Fatalf("findings drift: cold=%v warm=%v", cold.Unsound, warm.Unsound)
	}
}

// TestKillAndResume simulates a crash mid-campaign via MaxChecks and
// verifies the resume contract: no verdict is lost (everything recorded
// before the stop is a hit afterwards) and no program is rechecked
// (resumed checks + killed checks == total orbits exactly).
func TestKillAndResume(t *testing.T) {
	dir := t.TempDir()
	full, err := Run(context.Background(), Options{Bound: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const cut = 100
	killed, err := Run(context.Background(), Options{Bound: 2, Workers: 1, StateDir: dir, MaxChecks: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !killed.Stopped {
		t.Fatalf("MaxChecks=%d did not stop a %d-orbit campaign", cut, full.Orbits)
	}
	if killed.Checked != cut {
		t.Fatalf("killed run checked %d, want exactly %d", killed.Checked, cut)
	}

	resumed, err := Run(context.Background(), Options{Bound: 2, Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stopped {
		t.Fatal("resumed run stopped unexpectedly")
	}
	if resumed.Hits != killed.Checked {
		t.Fatalf("verdicts lost: resumed hit %d, killed recorded %d", resumed.Hits, killed.Checked)
	}
	if resumed.Checked != full.Orbits-killed.Checked {
		t.Fatalf("rechecking detected: resumed checked %d, want %d-%d=%d",
			resumed.Checked, full.Orbits, killed.Checked, full.Orbits-killed.Checked)
	}
	if resumed.Orbits != full.Orbits || resumed.Generated != full.Generated {
		t.Fatalf("resumed run coverage differs from clean run: %+v vs %+v", resumed, full)
	}
}

// TestContextCancellation checks a canceled campaign reports the
// interruption instead of a silent partial result.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Options{Bound: 2, Workers: 1})
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
}

// TestProgressReporting checks snapshots arrive from the single reporter
// and are monotone.
func TestProgressReporting(t *testing.T) {
	var snaps []Snapshot
	_, err := Run(context.Background(), Options{
		Bound:         2,
		Workers:       2,
		ProgressEvery: time.Millisecond,
		Progress:      func(s Snapshot) { snaps = append(snaps, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Generated < snaps[i-1].Generated || snaps[i].Checked < snaps[i-1].Checked {
			t.Fatalf("progress not monotone: %+v then %+v", snaps[i-1], snaps[i])
		}
	}
}

// TestExhaustiveParity cross-checks the campaign engine against the
// direct generate-and-check sweep: both must agree that the bound-2 family
// is entirely sound (and the engine must cover every orbit exactly once).
func TestExhaustiveParity(t *testing.T) {
	r, err := Run(context.Background(), Options{Bound: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Unsound) != 0 {
		t.Fatalf("campaign found unsound orbits on bound 2: %v", r.Unsound)
	}
	n := int64(len(memmodel.X86ThreadSkeletons(2)))
	if want := n * (n + 1) / 2; r.Generated != want {
		t.Fatalf("generated %d programs, family has %d", r.Generated, want)
	}
	if r.Orbits+r.Dups != r.Generated {
		t.Fatalf("accounting leak: orbits %d + dups %d != generated %d", r.Orbits, r.Dups, r.Generated)
	}
}
