package main

import (
	"fmt"
	"math/rand"

	"lasagne/internal/backend"
	"lasagne/internal/minic"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
)

// Kernel is one suite program built from source: its x86-64 input object
// (what the translator consumes) and its native Arm64 build (the reference
// the translation is compared against, compiled from the same optimized IR).
type Kernel struct {
	Name string
	X86  *obj.File
	Arm  *obj.File
}

// suiteNames is the benchmark suite: the five Phoenix kernels of the paper's
// Table 1 plus the lock-free spsc_ring.
func suiteNames() []string {
	var names []string
	for _, b := range phoenix.All() {
		names = append(names, b.Name)
	}
	for _, b := range phoenix.LockFree() {
		names = append(names, b.Name)
	}
	return names
}

// compileMinic compiles minic source through the -O2-like pipeline.
func compileMinic(name, src string) (x86, arm *obj.File, err error) {
	m, err := minic.Compile(name, src)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	if err := opt.Optimize(m); err != nil {
		return nil, nil, fmt.Errorf("%s: optimize: %w", name, err)
	}
	if x86, err = backend.Compile(m.Clone(), "x86-64"); err != nil {
		return nil, nil, fmt.Errorf("%s: x86-64 backend: %w", name, err)
	}
	if arm, err = backend.Compile(m, "arm64"); err != nil {
		return nil, nil, fmt.Errorf("%s: arm64 backend: %w", name, err)
	}
	return x86, arm, nil
}

// buildSuite compiles every suite kernel, in the order given by a seeded
// permutation (the suite itself is fixed; the seed only shuffles the order
// the workload visits it in).
func buildSuite(seed int64) ([]Kernel, error) {
	names := suiteNames()
	rand.New(rand.NewSource(seed)).Shuffle(len(names), func(i, j int) {
		names[i], names[j] = names[j], names[i]
	})
	ks := make([]Kernel, 0, len(names))
	for _, n := range names {
		b := phoenix.Get(n)
		x, a, err := compileMinic(b.Name, b.Source)
		if err != nil {
			return nil, err
		}
		ks = append(ks, Kernel{Name: b.Name, X86: x, Arm: a})
	}
	return ks, nil
}
