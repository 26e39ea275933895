package campaign

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"lasagne/internal/memmodel"
)

var allModels = []memmodel.Model{memmodel.SC, memmodel.X86, memmodel.Arm, memmodel.LIMM}

// actionLocs and actionVals list the action's location and value
// bijections: element i is the original renamed to canonical location i,
// or to canonical value i. TestCanonicalFamilyGolden reads the action only
// through them, so its hash does not depend on how Action stores the
// bijections.
func actionLocs(act Action) []string { return act.Locs }
func actionVals(act Action) []int    { return act.Vals }

// renameBehavior transports one behavior across an orbit action: locations
// and values through the recorded bijections, thread ids through the
// recorded permutation. Read-slot ordinals are per-(thread, location) read
// counters, which no orbit action changes, so they pass through.
func renameBehavior(b memmodel.Behavior, act Action) memmodel.Behavior {
	threadPos := map[int]int{}
	for pos, orig := range act.Threads {
		threadPos[orig] = pos
	}
	locs := map[string]string{}
	for i, orig := range act.Locs {
		locs[orig] = canonLoc(i)
	}
	vals := map[int]int{}
	for v, orig := range act.Vals {
		vals[orig] = v
	}
	type fin struct {
		loc string
		val int
	}
	var finals []fin
	if b.Finals != "" {
		for _, part := range strings.Split(b.Finals, ";") {
			lv := strings.SplitN(part, "=", 2)
			v, _ := strconv.Atoi(lv[1])
			finals = append(finals, fin{locs[lv[0]], vals[v]})
		}
	}
	sort.Slice(finals, func(i, j int) bool { return finals[i].loc < finals[j].loc })
	var sb strings.Builder
	for i, f := range finals {
		if i > 0 {
			sb.WriteString(";")
		}
		fmt.Fprintf(&sb, "%s=%d", f.loc, f.val)
	}
	out := memmodel.Behavior{Finals: sb.String(), Reads: map[string]int{}}
	for k, v := range b.Reads {
		parts := strings.SplitN(k, ".", 3)
		tid, _ := strconv.Atoi(strings.TrimPrefix(parts[0], "t"))
		out.Reads[fmt.Sprintf("t%d.%s.%s", threadPos[tid], locs[parts[1]], parts[2])] = vals[v]
	}
	return out
}

func renameBehaviors(in map[string]memmodel.Behavior, act Action) map[string]bool {
	out := map[string]bool{}
	for _, b := range in {
		out[renameBehavior(b, act).Key(true)] = true
	}
	return out
}

func keySet(in map[string]memmodel.Behavior) map[string]bool {
	out := map[string]bool{}
	for k := range in {
		out[k] = true
	}
	return out
}

func setsEqual(a, b map[string]bool) string {
	for k := range a {
		if !b[k] {
			return "only in first: " + k
		}
	}
	for k := range b {
		if !a[k] {
			return "only in second: " + k
		}
	}
	return ""
}

// applySigma produces a random orbit member of threads: permute threads,
// rename locations and (nonzero) values by bijections, and sprinkle inert
// fences (leading, trailing, adjacent duplicates). The returned Action-like
// knowledge stays implicit — the test only needs that the result is in the
// same orbit.
func applySigma(rng *rand.Rand, threads [][]Op) [][]Op {
	out := make([][]Op, len(threads))
	perm := rng.Perm(len(threads))
	locNames := []string{"P", "Q", "R", "S"}
	rng.Shuffle(len(locNames), func(i, j int) { locNames[i], locNames[j] = locNames[j], locNames[i] })
	locMap := map[string]string{}
	valShift := rng.Intn(5) + 1
	ren := func(v int) int {
		if v == 0 {
			return 0 // the initial value is fixed by the orbit action
		}
		return v + valShift
	}
	fences := []memmodel.Fence{memmodel.MFENCE}
	for i, pi := range perm {
		src := threads[pi]
		var t []Op
		if rng.Intn(2) == 0 { // leading inert fence
			t = append(t, memmodel.Fn(fences[rng.Intn(len(fences))]))
		}
		for _, o := range src {
			if o.Kind != memmodel.OpFence {
				if _, ok := locMap[o.Loc]; !ok {
					locMap[o.Loc] = locNames[len(locMap)]
				}
				o.Loc = locMap[o.Loc]
				if o.Kind == memmodel.OpStore || o.Kind == memmodel.OpRMW {
					o.Val = ren(o.Val)
				}
				if o.HasExp {
					o.Exp = ren(o.Exp)
				}
			}
			t = append(t, o)
			if o.Kind == memmodel.OpFence && rng.Intn(3) == 0 {
				t = append(t, o) // adjacent duplicate fence
			}
		}
		if rng.Intn(2) == 0 { // trailing inert fence
			t = append(t, memmodel.Fn(fences[rng.Intn(len(fences))]))
		}
		out[i] = t
	}
	return out
}

// TestOrbitSoundness is the randomized canonicalization soundness test:
// every sampled orbit member must (1) fingerprint identically to the base
// program, (2) yield, after transport along its canonicalization action,
// exactly the canonical representative's behavior set under all four
// models, and (3) receive the same CheckMapping verdict as the canonical
// representative.
func TestOrbitSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	skels := memmodel.X86ThreadSkeletons(3)
	c := NewCanonicalizer()
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		base := [][]Op{skels[rng.Intn(len(skels))], skels[rng.Intn(len(skels))]}
		canonP, fp, _ := c.CanonicalProgram(base)

		// Sample a handful of orbit members, the base among them.
		members := [][][]Op{base}
		for k := 0; k < 3; k++ {
			members = append(members, applySigma(rng, base))
		}
		for mi, member := range members {
			mp := &memmodel.Program{Name: fmt.Sprintf("orbit%d_%d", trial, mi), Threads: member}
			mcanon, act := c.Canonical(member)
			mfp := c.Fingerprint(mcanon)
			if mfp != fp {
				t.Fatalf("trial %d member %d: fingerprint %s differs from base %s\nbase=%v\nmember=%v",
					trial, mi, mfp, fp, base, member)
			}
			for _, m := range allModels {
				got := renameBehaviors(memmodel.BehaviorsOf(mp, m, true), act)
				want := keySet(memmodel.BehaviorsOf(canonP, m, true))
				if diff := setsEqual(got, want); diff != "" {
					t.Fatalf("trial %d member %d under %s: transported behaviors differ: %s\nmember=%v\ncanon=%v",
						trial, mi, m.Name, diff, member, canonP.Threads)
				}
			}
			vm := memmodel.CheckMapping(mp, memmodel.X86, checkScheme.Map, memmodel.Arm)
			vc := memmodel.CheckMapping(canonP, memmodel.X86, checkScheme.Map, memmodel.Arm)
			if (vm == nil) != (vc == nil) {
				t.Fatalf("trial %d member %d: verdict mismatch: member=%v canon=%v", trial, mi, vm, vc)
			}
		}
	}
}

// TestInertFenceBehaviorIdentity pins the fence-normalization assumption
// directly: adding leading fences, trailing fences or adjacent duplicate
// fences never changes a program's behavior set — byte-identical keys, no
// renaming involved — under any of the four models.
func TestInertFenceBehaviorIdentity(t *testing.T) {
	fences := []memmodel.Fence{memmodel.MFENCE, memmodel.Frm, memmodel.Fww, memmodel.Fsc,
		memmodel.DMBFF, memmodel.DMBLD, memmodel.DMBST}
	for _, p := range memmodel.ClassicTests() {
		for _, f := range fences {
			dec := &memmodel.Program{Name: p.Name + "+inert", Threads: make([][]Op, len(p.Threads))}
			for i, th := range p.Threads {
				nt := []Op{memmodel.Fn(f)} // leading
				for j, o := range th {
					nt = append(nt, o)
					if j == 0 && o.Kind == memmodel.OpFence {
						nt = append(nt, o) // adjacent duplicate
					}
				}
				nt = append(nt, memmodel.Fn(f), memmodel.Fn(f)) // trailing duplicates
				dec.Threads[i] = nt
			}
			for _, m := range allModels {
				got := keySet(memmodel.BehaviorsOf(dec, m, true))
				want := keySet(memmodel.BehaviorsOf(p, m, true))
				if diff := setsEqual(got, want); diff != "" {
					t.Fatalf("%s decorated with %v under %s: %s", p.Name, f, m.Name, diff)
				}
			}
		}
	}
}

// TestCanonicalIdempotent checks that canonicalizing a canonical program is
// the identity (same threads, same fingerprint).
func TestCanonicalIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	skels := memmodel.X86ThreadSkeletons(3)
	c := NewCanonicalizer()
	c2 := NewCanonicalizer()
	for trial := 0; trial < 50; trial++ {
		base := [][]Op{skels[rng.Intn(len(skels))], skels[rng.Intn(len(skels))]}
		canonP, fp, _ := c.CanonicalProgram(base)
		again, fp2, _ := c2.CanonicalProgram(canonP.Threads)
		if fp2 != fp {
			t.Fatalf("trial %d: canonical form not idempotent: %s vs %s", trial, fp, fp2)
		}
		if fmt.Sprint(again.Threads) != fmt.Sprint(canonP.Threads) {
			t.Fatalf("trial %d: re-canonicalization changed threads:\n%v\n%v",
				trial, canonP.Threads, again.Threads)
		}
	}
}

// TestBound2VerdictPreservation sweeps the whole bound-2 family and checks
// that every member's CheckMapping verdict matches its canonical
// representative's — the property that makes checking one representative
// per orbit sound.
func TestBound2VerdictPreservation(t *testing.T) {
	if testing.Short() {
		t.Skip("checks the full bound-2 family twice")
	}
	c := NewCanonicalizer()
	repVerdict := map[Fingerprint]bool{} // true = sound
	for _, p := range memmodel.GenerateX86Programs(2) {
		canonP, fp, _ := c.CanonicalProgram(p.Threads)
		repSound, seen := repVerdict[fp]
		if !seen {
			repSound = memmodel.CheckMapping(canonP, memmodel.X86, checkScheme.Map, memmodel.Arm) == nil
			repVerdict[fp] = repSound
		}
		memSound := memmodel.CheckMapping(p, memmodel.X86, checkScheme.Map, memmodel.Arm) == nil
		if memSound != repSound {
			t.Fatalf("%s: member verdict sound=%v but canonical %s sound=%v\nmember=%v\ncanon=%v",
				p.Name, memSound, fp, repSound, p.Threads, canonP.Threads)
		}
	}
}

// TestFingerprintFromWinningEncoding checks, over the bound-2 family in both
// thread orders, that the fingerprint the campaign takes from the
// minimization's winning encoding equals Fingerprint's re-encoding of the
// canonical threads.
func TestFingerprintFromWinningEncoding(t *testing.T) {
	c := NewCanonicalizer()
	for _, p := range memmodel.GenerateX86Programs(2) {
		for _, threads := range [][][]Op{p.Threads, {p.Threads[1], p.Threads[0]}} {
			c.canonicalize(threads)
			fp := c.fingerprint()
			canon := c.threads()
			if re := c.Fingerprint(canon); re != fp {
				t.Fatalf("%s %v: winning encoding fingerprints to %s, canonical threads %v to %s",
					p.Name, threads, fp, canon, re)
			}
		}
	}
}

// TestCanonicalizeAllocatesNothing pins the campaign's per-program cost:
// once a canonicalizer's buffers have grown, canonicalizing, fingerprinting
// and renaming the whole bound-3 family, in the order run visits it,
// allocates nothing at all.
func TestCanonicalizeAllocatesNothing(t *testing.T) {
	skels := memmodel.X86ThreadSkeletons(3)
	c := NewCanonicalizer()
	var fp Fingerprint
	family := func() {
		for i := range skels {
			threads := [2][]Op{skels[i], nil}
			for j := i; j < len(skels); j++ {
				threads[1] = skels[j]
				c.canonicalize(threads[:])
				fp = c.fingerprint()
				c.threads()
			}
		}
	}
	// AllocsPerRun warms up with one call, then counts the next.
	if n := testing.AllocsPerRun(1, family); n != 0 {
		t.Fatalf("canonicalizing the bound-3 family allocates %.0f times after warm-up, want 0", n)
	}
	_ = fp
	// CanonicalProgram allocates only what it hands out: the program, its
	// name, its thread headers and one op array.
	threads := [][]Op{skels[17], skels[len(skels)-1]}
	if n := testing.AllocsPerRun(100, func() { c.CanonicalProgram(threads) }); n > 4 {
		t.Fatalf("CanonicalProgram allocates %.1f times per call, want at most 4", n)
	}
}

// Canonical computes the canonical representative of threads' orbit and the
// action mapping the input onto it (see canonicalize). The returned thread
// slices and action share the canonicalizer's buffers and are only valid
// until the next call; callers needing a persistent program use
// CanonicalProgram.
func (c *Canonicalizer) Canonical(threads [][]Op) ([][]Op, Action) {
	c.canonicalize(threads)
	return c.threads(), c.action()
}

// Fingerprint hashes the canonical encoding of the given canonical threads.
// It must be called on Canonical's output (it re-encodes in identity order
// without re-minimizing).
func (c *Canonicalizer) Fingerprint(canon [][]Op) Fingerprint {
	c.perm = c.perm[:0]
	for i := range canon {
		c.perm = append(c.perm, i)
	}
	return fingerprintOf(c.encode(canon, c.perm))
}
