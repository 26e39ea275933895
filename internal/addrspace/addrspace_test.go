package addrspace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestMatchesFlatMemory drives a Space and a flat Size-byte slice with the
// same random mix of sized loads and stores (fast and slow paths) and
// bulk reads and writes, clustered around page boundaries and the top of
// memory, and requires the same values, the same faults and the same
// bytes.
func TestMatchesFlatMemory(t *testing.T) {
	var s Space
	flat := make([]byte, Size)
	rng := rand.New(rand.NewSource(1))
	addr := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return uint64(rng.Intn(NumPages+1))*PageSize + uint64(rng.Intn(24)) - 12
		case 1:
			return Size - uint64(rng.Intn(24))
		case 2:
			return uint64(rng.Int63n(Size))
		}
		return Size + uint64(rng.Intn(64))
	}
	fast := map[int]func(uint64) (uint64, bool){1: s.Load1, 2: s.Load2, 4: s.Load4, 8: s.Load8}
	fastStore := map[int]func(uint64, uint64) bool{1: s.Store1, 2: s.Store2, 4: s.Store4, 8: s.Store8}
	for i := 0; i < 200_000; i++ {
		a, n := addr(), 1<<rng.Intn(4)
		ok := a < Size && uint64(n) <= Size-a
		var want uint64
		if ok {
			var b [8]byte
			copy(b[:], flat[a:a+uint64(n)])
			want = binary.LittleEndian.Uint64(b[:])
		}
		switch rng.Intn(5) {
		case 0:
			if got, gok := s.Load(a, n); gok != ok || got != want {
				t.Fatalf("Load(%#x, %d) = %#x, %v; want %#x, %v", a, n, got, gok, want, ok)
			}
		case 1:
			if got, hit := fast[n](a); hit && (!ok || got != want) {
				t.Fatalf("Load%d(%#x) = %#x on the fast path; want %#x, in bounds %v", n, a, got, want, ok)
			}
		case 2:
			v := rng.Uint64()
			if fastStore[n](a, v) {
				if !ok {
					t.Fatalf("Store%d(%#x) took the fast path out of bounds", n, a)
				}
			} else if s.Store(a, n, v) != ok {
				t.Fatalf("Store(%#x, %d) bounds disagree", a, n)
			}
			if ok {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], v)
				copy(flat[a:a+uint64(n)], b[:n])
			}
		case 3:
			buf := make([]byte, rng.Intn(3*PageSize))
			ok := a < Size && uint64(len(buf)) <= Size-a
			if s.Read(a, buf) != ok {
				t.Fatalf("Read(%#x, %d bytes) bounds disagree", a, len(buf))
			}
			if ok && !bytes.Equal(buf, flat[a:a+uint64(len(buf))]) {
				t.Fatalf("Read(%#x, %d bytes) differs from the flat memory", a, len(buf))
			}
		case 4:
			buf := make([]byte, rng.Intn(3*PageSize))
			rng.Read(buf)
			ok := a < Size && uint64(len(buf)) <= Size-a
			if s.Write(a, buf) != ok {
				t.Fatalf("Write(%#x, %d bytes) bounds disagree", a, len(buf))
			}
			if ok {
				copy(flat[a:], buf)
			}
		}
	}
	// Every allocated page holds exactly the flat bytes; every other page
	// is zero in the flat memory.
	zero := make([]byte, PageSize)
	for i, p := range s.pages {
		f := flat[i*PageSize : (i+1)*PageSize]
		if p != nil && !bytes.Equal(p[:], f) || p == nil && !bytes.Equal(f, zero) {
			t.Fatalf("page %d differs from the flat memory", i)
		}
	}
}

// TestReadsAllocateNothing reads every size across a fresh space's page
// boundaries: each read returns zero and allocates no page and no memory.
func TestReadsAllocateNothing(t *testing.T) {
	var s Space
	buf, zero := make([]byte, 2*PageSize), make([]byte, 2*PageSize)
	allocs := testing.AllocsPerRun(10, func() {
		for a := uint64(PageSize - 8); a <= PageSize+1; a++ {
			for _, n := range []int{1, 2, 4, 8} {
				if v, ok := s.Load(a, n); v != 0 || !ok {
					t.Fatalf("Load(%#x, %d) = %#x, %v", a, n, v, ok)
				}
			}
		}
		if !s.Read(PageSize/2, buf) || !bytes.Equal(buf, zero) {
			t.Fatal("Read of unwritten pages is not zero")
		}
	})
	if allocs != 0 || s.Pages() != 0 {
		t.Errorf("reads made %v allocations and %d pages", allocs, s.Pages())
	}
	if !s.Store(PageSize-1, 2, 0xFFFF) || s.Pages() != 2 {
		t.Errorf("a straddling store allocated %d pages, want 2", s.Pages())
	}
}
