package sim

import (
	"hash/fnv"
	"math/rand"

	"lasagne/internal/addrspace"
	"lasagne/internal/obj"
)

// SeedDataSymbols overwrites every SymData symbol's memory with
// pseudo-random bytes derived from (seed, symbol name). Keying by name
// rather than address makes the fill identical for the x86 and Arm64
// objects of the same program even though their data layouts differ, which
// is what lets the differential oracle compare the two simulators on
// randomized initial data. Seed 0 leaves the pristine section contents (the
// image as linked), so the oracle's first input is always the program's own
// initializers.
func (m *Machine) SeedDataSymbols(seed int64) {
	if seed == 0 {
		return
	}
	for _, s := range m.File.Symbols {
		if s.Kind != obj.SymData || s.Size == 0 {
			continue
		}
		if !addrspace.InBounds(s.Addr, int(s.Size)) {
			continue
		}
		rng := rand.New(rand.NewSource(symbolSeed(seed, s.Name)))
		buf := make([]byte, s.Size)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		m.Mem.Write(s.Addr, buf)
	}
}

// symbolSeed mixes the run seed with the symbol name into a per-symbol
// PRNG seed.
func symbolSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return seed ^ int64(h.Sum64())
}
