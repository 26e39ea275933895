// Package mc implements the lowest lifting layer (the MCInst stage of
// Fig. 4) for both input ISAs: it decodes the .text section of an object
// into per-function instruction streams using the symbol table.
package mc

import (
	"fmt"

	"lasagne/internal/obj"
	"lasagne/internal/x86"
)

// Stream is the decoded instruction sequence of one function.
type Stream[I any] struct {
	Sym   obj.Symbol
	Insts []I
}

// Names returns the streams' function names in order.
func Names[I any](streams []Stream[I]) []string {
	names := make([]string, len(streams))
	for i, s := range streams {
		names[i] = s.Sym.Name
	}
	return names
}

// Disassemble decodes every function symbol of an x86-64 object file. The
// first undecodable function fails the whole object.
func Disassemble(f *obj.File) ([]Stream[x86.Inst], error) {
	return Decode(f, "x86-64", x86.DecodeAll, nil)
}

// Decode decodes each function symbol of an arch object with decodeAll. A
// function that sits outside .text or contains undecodable bytes is
// reported through bad and skipped, instead of poisoning the whole object;
// with bad nil it fails the object. Object-level problems (wrong
// architecture, missing .text) always return an error.
func Decode[I any](f *obj.File, arch string, decodeAll func(code []byte, base uint64) ([]I, error),
	bad func(sym obj.Symbol, err error)) ([]Stream[I], error) {
	if f.Arch != arch {
		return nil, fmt.Errorf("mc: cannot disassemble %q binaries as %s", f.Arch, arch)
	}
	text := f.Section(".text")
	if text == nil {
		return nil, fmt.Errorf("mc: no .text section")
	}
	var out []Stream[I]
	for _, sym := range f.FuncSymbols() {
		insts, err := decodeFunc(text, sym, decodeAll)
		if err != nil {
			if bad == nil {
				return nil, err
			}
			bad(sym, err)
			continue
		}
		out = append(out, Stream[I]{Sym: sym, Insts: insts})
	}
	return out, nil
}

func decodeFunc[I any](text *obj.Section, sym obj.Symbol, decodeAll func([]byte, uint64) ([]I, error)) ([]I, error) {
	if sym.Addr < text.Addr || sym.Addr+sym.Size > text.Addr+uint64(len(text.Data)) {
		return nil, fmt.Errorf("mc: function %s outside .text", sym.Name)
	}
	start := sym.Addr - text.Addr
	insts, err := decodeAll(text.Data[start:start+sym.Size], sym.Addr)
	if err != nil {
		return nil, fmt.Errorf("mc: disassembling %s: %w", sym.Name, err)
	}
	return insts, nil
}
