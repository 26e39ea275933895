// Package lasagne is a from-scratch Go reproduction of "Lasagne: A Static
// Binary Translator for Weak Memory Model Architectures" (PLDI 2022). It
// re-exports the end-to-end translator pipeline; the substrates live in
// internal/ packages:
//
//	internal/minic    — a small C-like compiler producing input binaries
//	internal/x86      — x86-64 encoder/decoder
//	internal/lifter   — binary lifting (§4)
//	internal/refine   — IR refinement (§5)
//	internal/memmodel — LIMM and the verified mappings (§6–7)
//	internal/fences   — fence placement and merging (§8)
//	internal/opt      — LLVM-style optimization passes
//	internal/backend  — x86-64 and Arm64 code generation
//	internal/sim      — machine simulators with a cycle cost model
//	internal/eval     — the §9 evaluation harness
package lasagne

import (
	"context"

	"lasagne/internal/core"
	"lasagne/internal/diag"
	"lasagne/internal/obj"
)

// Config selects the pipeline stages (see internal/core).
type Config = core.Config

// Stats reports pipeline metrics.
type Stats = core.Stats

// Report is the typed diagnostic report of one pipeline run: per-function
// errors, warnings, and the list of functions that fell back to the
// conservative full-fence translation.
type Report = diag.Report

// Default returns the full Lasagne configuration (the paper's PPOpt).
func Default() Config { return core.Default() }

// Translate statically translates an x86-64 object file into an Arm64
// object file, preserving x86-TSO concurrency semantics via the verified
// fence mapping. The Report describes any per-function degradations or
// failures; it is non-nil even when err is.
func Translate(bin *obj.File, cfg Config) (*obj.File, *Stats, *Report, error) {
	return core.Translate(bin, cfg)
}

// TranslateContext is Translate bounded by a context: when ctx expires the
// pipeline stops and returns an error wrapping diag.ErrBudgetExceeded.
func TranslateContext(ctx context.Context, bin *obj.File, cfg Config) (*obj.File, *Stats, *Report, error) {
	return core.TranslateContext(ctx, bin, cfg)
}

// TranslateArmToX86 translates an Arm64 object file into an x86-64 object
// file (the paper's Appendix B direction): DMB fences map through the IR's
// LIMM fences onto TSO's implicit ordering (plus MFENCE for full fences),
// and LL/SC loops become LOCK-prefixed instructions. It runs Translate's
// pipeline and fault tolerance: a function that cannot be decoded or lifted
// is dropped or stubbed with an Error diagnostic, and the translation fails
// unless cfg.AllowPartial is set.
func TranslateArmToX86(bin *obj.File, cfg Config) (*obj.File, *Stats, *Report, error) {
	return core.TranslateArmToX86(bin, cfg)
}
