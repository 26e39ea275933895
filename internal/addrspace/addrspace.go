// Package addrspace is the flat simulated address space shared by the
// machine-code simulators (internal/sim) and the IR interpreter
// (internal/ir): Size bytes, every one zero until written, with the same
// out-of-bounds rule everywhere — an access faults unless all of its bytes
// lie below Size.
//
// The space is paged. A page is allocated on the first store that touches
// it; a page that was never written reads as zero and costs nothing, so a
// machine costs the pages its program writes rather than Size bytes. The
// fast accessors (Load1..Load8, Store1..Store8) inline into their callers
// and serve an access that lies inside one allocated page with one compare
// of the page index, one page-table load, an in-page check and a direct
// little-endian access; everything else — accesses that straddle a page,
// pages not allocated yet, out-of-bounds addresses — falls through to the
// exact Load/Store slow path.
package addrspace

import "encoding/binary"

const (
	// Size is the number of addressable bytes.
	Size = 64 << 20
	// PageBits is log2 of the page size, chosen by measuring 4, 16 and
	// 64 KiB pages over the simulator suite (DESIGN §6g): the times were
	// equal; NewMachine plus Run of a suite build allocated up to 374 KiB,
	// 542 KiB and 1.6 MiB; and 16 KiB keeps the embedded page table at
	// 32 KiB, where 4 KiB pages need 128 KiB in every space.
	PageBits = 14
	// PageSize is the allocation unit.
	PageSize = 1 << PageBits
	// NumPages is the number of page-table entries.
	NumPages = Size / PageSize

	pageMask = PageSize - 1
)

type page = [PageSize]byte

// Space is one address space. The zero value is an empty space (all zero,
// no page allocated) ready to use. A Space must not be copied after first
// use.
type Space struct {
	pages [NumPages]*page
}

// InBounds reports whether the n bytes at addr all lie below Size.
func InBounds(addr uint64, n int) bool {
	return addr < Size && uint64(n) <= Size-addr
}

// Pages returns the number of allocated pages.
func (s *Space) Pages() int {
	n := 0
	for _, p := range s.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Fast paths. Each reports false, touching nothing, unless the access
// lies inside one allocated page; the caller then takes Load or Store.
// A page index below NumPages with the access inside its page implies the
// whole access lies below Size.

// Load8 reads the 8 bytes at addr from an allocated page.
func (s *Space) Load8(addr uint64) (uint64, bool) {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-8 {
			return binary.LittleEndian.Uint64(p[o:]), true
		}
	}
	return 0, false
}

// Load4 reads the 4 bytes at addr from an allocated page.
func (s *Space) Load4(addr uint64) (uint64, bool) {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-4 {
			return uint64(binary.LittleEndian.Uint32(p[o:])), true
		}
	}
	return 0, false
}

// Load2 reads the 2 bytes at addr from an allocated page.
func (s *Space) Load2(addr uint64) (uint64, bool) {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-2 {
			return uint64(binary.LittleEndian.Uint16(p[o:])), true
		}
	}
	return 0, false
}

// Load1 reads the byte at addr from an allocated page.
func (s *Space) Load1(addr uint64) (uint64, bool) {
	if i := addr >> PageBits; i < NumPages {
		if p := s.pages[i]; p != nil {
			return uint64(p[addr&pageMask]), true
		}
	}
	return 0, false
}

// Store8 writes the 8 bytes at addr into an allocated page.
func (s *Space) Store8(addr, v uint64) bool {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-8 {
			binary.LittleEndian.PutUint64(p[o:], v)
			return true
		}
	}
	return false
}

// Store4 writes the 4 bytes at addr into an allocated page.
func (s *Space) Store4(addr, v uint64) bool {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-4 {
			binary.LittleEndian.PutUint32(p[o:], uint32(v))
			return true
		}
	}
	return false
}

// Store2 writes the 2 bytes at addr into an allocated page.
func (s *Space) Store2(addr, v uint64) bool {
	if i := addr >> PageBits; i < NumPages {
		if p, o := s.pages[i], addr&pageMask; p != nil && o <= PageSize-2 {
			binary.LittleEndian.PutUint16(p[o:], uint16(v))
			return true
		}
	}
	return false
}

// Store1 writes the byte at addr into an allocated page.
func (s *Space) Store1(addr, v uint64) bool {
	if i := addr >> PageBits; i < NumPages {
		if p := s.pages[i]; p != nil {
			p[addr&pageMask] = byte(v)
			return true
		}
	}
	return false
}

// Load returns the n-byte (1 ≤ n ≤ 8) little-endian value at addr, or
// false when the access is out of bounds. Bytes of pages never written
// read as zero; nothing is allocated.
func (s *Space) Load(addr uint64, n int) (uint64, bool) {
	if n < 1 || n > 8 {
		return 0, false
	}
	var b [8]byte
	ok := s.Read(addr, b[:n])
	return binary.LittleEndian.Uint64(b[:]), ok
}

// Store writes the low n bytes (1 ≤ n ≤ 8) of v little-endian at addr,
// allocating the pages it touches, or reports false, writing nothing,
// when the access is out of bounds.
func (s *Space) Store(addr uint64, n int, v uint64) bool {
	if n < 1 || n > 8 {
		return false
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return s.Write(addr, b[:n])
}

// Read copies the len(dst) bytes at addr into dst, page by page, or
// reports false, copying nothing, when they do not all lie below Size.
// It allocates nothing.
func (s *Space) Read(addr uint64, dst []byte) bool {
	if !InBounds(addr, len(dst)) {
		return false
	}
	for len(dst) > 0 {
		o := addr & pageMask
		n := min(uint64(len(dst)), PageSize-o)
		if p := s.pages[addr>>PageBits]; p != nil {
			copy(dst[:n], p[o:])
		} else {
			clear(dst[:n])
		}
		dst, addr = dst[n:], addr+n
	}
	return true
}

// Write copies src to the bytes at addr, page by page, allocating the
// pages it touches, or reports false, writing nothing, when they do not
// all lie below Size.
func (s *Space) Write(addr uint64, src []byte) bool {
	if !InBounds(addr, len(src)) {
		return false
	}
	for len(src) > 0 {
		o := addr & pageMask
		n := min(uint64(len(src)), PageSize-o)
		p := s.pages[addr>>PageBits]
		if p == nil {
			p = new(page)
			s.pages[addr>>PageBits] = p
		}
		copy(p[o:], src[:n])
		src, addr = src[n:], addr+n
	}
	return true
}
