package ir

// ReplaceAllUses is the per-rewrite whole-function scan the batched
// Replacer retired from the passes, kept as the reference it is checked
// against: it rewrites every use of old within f to new.
func ReplaceAllUses(f *Func, old, new Value) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			n += in.ReplaceUses(old, new)
		}
	}
	return n
}

// referenceUses is the map-backed use map the dense Uses index replaced.
func referenceUses(f *Func) map[Value][]*Instr {
	u := make(map[Value][]*Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				switch a.(type) {
				case *Instr, *Param:
					u[a] = append(u[a], in)
				}
			}
		}
	}
	return u
}
