package memmodel

// relation is an n×n boolean adjacency matrix over event IDs, packed 64
// pairs per word: row a occupies the word range [a*w, (a+1)*w). Packing lets
// union, closure and copy move 64 pairs per instruction, which is what makes
// the per-execution consistency check cheap enough to run millions of times
// in the bounded checkers (the same representation herd7-style axiomatic
// checkers use).
type relation struct {
	n, w int // n events, w words per row
	bits []uint64
}

func newRel(n int) *relation {
	w := (n + 63) / 64
	if w == 0 {
		w = 1
	}
	return &relation{n: n, w: w, bits: make([]uint64, n*w)}
}

// newRelArena allocates count n×n relations backed by one contiguous word
// slice. The bounded checkers build fresh relation sets for thousands of tiny
// programs per second, so batching the backing allocation matters.
func newRelArena(n, count int) []relation {
	w := (n + 63) / 64
	if w == 0 {
		w = 1
	}
	row := n * w
	backing := make([]uint64, count*row)
	rs := make([]relation, count)
	for i := range rs {
		rs[i] = relation{n: n, w: w, bits: backing[i*row : (i+1)*row : (i+1)*row]}
	}
	return rs
}

func (r *relation) set(a, b int)      { r.bits[a*r.w+b>>6] |= 1 << (uint(b) & 63) }
func (r *relation) has(a, b int) bool { return r.bits[a*r.w+b>>6]&(1<<(uint(b)&63)) != 0 }

// row returns a's row: the w words holding the pairs (a, ·).
func (r *relation) row(a int) []uint64 { return r.bits[a*r.w : (a+1)*r.w : (a+1)*r.w] }

// setBit, hasBit, orRow and intersects treat one row as a bitset of event
// IDs.
func setBit(row []uint64, b int)      { row[b>>6] |= 1 << (uint(b) & 63) }
func hasBit(row []uint64, b int) bool { return row[b>>6]&(1<<(uint(b)&63)) != 0 }

func orRow(dst, src []uint64) {
	for i, x := range src {
		dst[i] |= x
	}
}

func intersects(a, b []uint64) bool {
	for i, x := range a {
		if x&b[i] != 0 {
			return true
		}
	}
	return false
}

// copyFrom overwrites r with o. The two must have identical shape.
func (r *relation) copyFrom(o *relation) { copy(r.bits, o.bits) }

// acyclic reports whether r, viewed as a digraph, has no cycle — the fused
// form of the models' "closure is irreflexive" axioms. It runs the same
// row-ORing closure as transitiveClosure, destructively, but returns the
// moment a diagonal bit appears: a diagonal bit can only be introduced by an
// OR into its own row, so checking right after each absorption catches the
// first cycle without finishing the closure. Inconsistent candidates exit
// early; when r is acyclic, the finished closure r+ is left in r.
func (r *relation) acyclic() bool {
	if r.w == 1 {
		return acyclic1(r.bits, r.n)
	}
	for i := 0; i < r.n; i++ {
		if r.has(i, i) {
			return false
		}
	}
	for k := 0; k < r.n; k++ {
		kw, kb := k>>6, uint64(1)<<(uint(k)&63)
		krow := r.bits[k*r.w : (k+1)*r.w]
		for i := 0; i < r.n; i++ {
			if i == k || r.bits[i*r.w+kw]&kb == 0 {
				continue
			}
			irow := r.bits[i*r.w : (i+1)*r.w]
			for j, x := range krow {
				irow[j] |= x
			}
			if irow[i>>6]&(1<<(uint(i)&63)) != 0 {
				return false
			}
		}
	}
	return true
}

// acyclic1 is acyclic specialized to single-word rows — every program with at
// most 64 events, i.e. all the litmus families the bounded checkers
// enumerate. Rows are plain uint64s, so one absorption is one OR.
func acyclic1(rows []uint64, n int) bool {
	rows = rows[:n] // hoist the bounds check out of the loops
	for i, row := range rows {
		if row&(1<<uint(i)) != 0 {
			return false
		}
	}
	for k, krow := range rows {
		kb := uint64(1) << uint(k)
		for i, row := range rows {
			if i == k || row&kb == 0 {
				continue
			}
			row |= krow
			rows[i] = row
			if row&(1<<uint(i)) != 0 {
				return false
			}
		}
	}
	return true
}
