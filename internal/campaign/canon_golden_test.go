package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"lasagne/internal/memmodel"
)

// canonFamilyGolden is the SHA-256 over every bound-3 skeleton pair's
// canonical form in both thread orders (see TestCanonicalFamilyGolden). A
// change that moves it changes canonical forms, fingerprints or actions; if
// fingerprints move, so does the meaning of every persisted verdict, and
// fpVersion and CheckerVersion must be bumped with it.
const canonFamilyGolden = "31cb4845f95080eb1063d54496fd66d3c9a1aad6ecf49459209700f65354362d"

// appendCanonEntry appends the compact binary form of one canonicalization:
// the fingerprint, every field of every canonical op, and the action's
// thread order and location and value bijections (canonical index →
// original).
func appendCanonEntry(b []byte, fp Fingerprint, canon [][]Op, act Action) []byte {
	b = append(b, fp[:]...)
	b = binary.AppendUvarint(b, uint64(len(canon)))
	for _, t := range canon {
		b = binary.AppendUvarint(b, uint64(len(t)))
		for _, o := range t {
			var flags byte
			for i, f := range []bool{o.SC, o.HasExp, o.Acq, o.Rel} {
				if f {
					flags |= 1 << i
				}
			}
			b = append(b, byte(o.Kind), byte(o.Fence), flags)
			b = binary.AppendUvarint(b, uint64(len(o.Loc)))
			b = append(b, o.Loc...)
			b = binary.AppendVarint(b, int64(o.Val))
			b = binary.AppendVarint(b, int64(o.Exp))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(act.Threads)))
	for _, ti := range act.Threads {
		b = binary.AppendUvarint(b, uint64(ti))
	}
	locs := actionLocs(act)
	b = binary.AppendUvarint(b, uint64(len(locs)))
	for _, l := range locs {
		b = binary.AppendUvarint(b, uint64(len(l)))
		b = append(b, l...)
	}
	vals := actionVals(act)
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// TestCanonicalFamilyGolden pins canonicalization byte for byte over the
// bound-3 family: every ordered skeleton pair (so both thread orders of each
// program) contributes its fingerprint, canonical threads and action to one
// SHA-256. Any change to normalization, the encoding, the minimization's
// tie-breaking or the renaming moves the hash.
func TestCanonicalFamilyGolden(t *testing.T) {
	skels := memmodel.X86ThreadSkeletons(3)
	c := NewCanonicalizer()
	h := sha256.New()
	var buf []byte
	var n int
	for i := range skels {
		for j := range skels {
			canon, act := c.Canonical([][]Op{skels[i], skels[j]})
			buf = appendCanonEntry(buf[:0], c.Fingerprint(canon), canon, act)
			h.Write(buf)
			n++
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != canonFamilyGolden {
		t.Fatalf("bound-3 canonical family (%d ordered pairs) hashes to\n  %s\nwant\n  %s", n, got, canonFamilyGolden)
	}
}
