package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lasagne/internal/ir"
)

// buildTestFunc constructs a function exercising every value and type kind
// the codec must round-trip: phis (forward references), calls, globals,
// constants of each flavor, atomics, fences, vectors and branches.
func buildTestFunc(m *ir.Module) *ir.Func {
	g := m.NewGlobal("counter", ir.ArrayOf(ir.I8, 8))
	callee := m.DeclareFunc("helper", ir.Signature(ir.I64, ir.I64))

	f := m.NewFunc("subject", ir.Signature(ir.I64, ir.I64, ir.F64))
	entry := f.NewBlock("entry")
	loop := f.NewBlock("loop")
	exit := f.NewBlock("exit")

	bd := ir.NewBuilder(entry)
	slot := bd.Alloca(ir.I64)
	bd.Store(f.Params[0], slot)
	gp := bd.Bitcast(g, ir.PointerTo(ir.I64))
	bd.StoreAtomic(ir.I64Const(1), gp, ir.SeqCst)
	bd.Fence(ir.FenceSC)
	bd.RMW(ir.RMWAdd, gp, ir.I64Const(2))
	bd.Br(loop)

	bd.SetBlock(loop)
	phi := bd.Phi(ir.I64)
	next := bd.Add(phi, ir.I64Const(1))
	fc := bd.FAdd(f.Params[1], ir.FloatConst(ir.F64, 1.5))
	cvt := bd.FPToSI(fc, ir.I64)
	called := bd.Call(callee, cvt)
	cond := bd.ICmp(ir.PredSLT, next, called)
	bd.CondBr(cond, loop, exit)
	ir.AddIncoming(phi, ir.I64Const(0), entry)
	ir.AddIncoming(phi, next, loop)

	bd.SetBlock(exit)
	ld := bd.LoadAtomic(gp, ir.SeqCst)
	sel := bd.Select(cond, ld, ir.I64Const(7))
	nul := bd.Select(cond, ir.Null(ir.PointerTo(ir.I64)), slot)
	ld2 := bd.Load(nul)
	sum := bd.Add(sel, ld2)
	bd.Ret(sum)
	return f
}

func TestCodecRoundTrip(t *testing.T) {
	m := ir.NewModule("t")
	f := buildTestFunc(m)
	if err := ir.VerifyFunc(f); err != nil {
		t.Fatalf("test function invalid: %v", err)
	}
	want := f.String()
	wantBound := f.IDBound()

	data := EncodeBody(f)
	// Decode into a fresh function shell in a structurally identical module,
	// the way a warm translation decodes into a freshly lifted module.
	m2 := ir.NewModule("t")
	f2 := buildTestFunc(m2)
	blocks, err := DecodeBody(f2, data)
	if err != nil {
		t.Fatal(err)
	}
	f2.RestoreBody(blocks)
	if got := f2.String(); got != want {
		t.Errorf("round-trip changed the function:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if err := ir.VerifyFunc(f2); err != nil {
		t.Errorf("decoded function invalid: %v", err)
	}
	if f2.IDBound() != wantBound {
		t.Errorf("IDBound = %d, want %d", f2.IDBound(), wantBound)
	}
}

func TestDecodeRejectsMismatchedModule(t *testing.T) {
	m := ir.NewModule("t")
	f := buildTestFunc(m)
	data := EncodeBody(f)

	// Same shape but the global's storage type differs: the decoder must
	// refuse rather than splice a mistyped reference.
	m2 := ir.NewModule("t")
	m2.NewGlobal("counter", ir.ArrayOf(ir.I8, 16))
	m2.DeclareFunc("helper", ir.Signature(ir.I64, ir.I64))
	f2 := m2.NewFunc("subject", ir.Signature(ir.I64, ir.I64, ir.F64))
	if _, err := DecodeBody(f2, data); err == nil {
		t.Error("decode into a module with a mismatched global succeeded")
	}

	// Truncated payloads must error, not panic.
	for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := DecodeBody(f2, data[:n]); err == nil {
			t.Errorf("decode of %d-byte truncation succeeded", n)
		}
	}
}

func TestKeySensitivity(t *testing.T) {
	m := ir.NewModule("t")
	f := buildTestFunc(m)
	base := KeyFor("v1", "merge=true", f)

	if k := KeyFor("v2", "merge=true", f); k == base {
		t.Error("pipeline version change did not change the key")
	}
	if k := KeyFor("v1", "merge=false", f); k == base {
		t.Error("config fingerprint change did not change the key")
	}
	if k := KeyFor("v1", "merge=true", f); k != base {
		t.Error("key is not deterministic for an unchanged function")
	}

	// Any body mutation must change the key.
	f.Blocks[0].Instrs[1].Args[0] = ir.I64Const(99)
	if k := KeyFor("v1", "merge=true", f); k == base {
		t.Error("function body change did not change the key")
	}
}

func TestLRUEviction(t *testing.T) {
	// The LRU bound is per shard (ceil(max/numShards)); keep every key in
	// one shard (same first byte) so the eviction order is observable.
	c := New(2 * numShards)
	keys := make([]Key, 3)
	for i := range keys {
		keys[i][1] = byte(i + 1)
		c.Put(keys[i], &Entry{Body: []byte{byte(i)}})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	for i := 1; i < 3; i++ {
		if _, ok := c.Get(keys[i]); !ok {
			t.Errorf("entry %d missing", i)
		}
	}
	// Touching key 1 makes key 2 the eviction victim.
	if _, ok := c.Get(keys[1]); !ok {
		t.Fatal("entry 1 missing")
	}
	var k4 Key
	k4[1] = 4
	c.Put(k4, &Entry{})
	if _, ok := c.Get(keys[2]); ok {
		t.Error("LRU evicted the most recently used entry instead of the oldest")
	}
	hits, misses := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("Stats = (%d, %d), want both nonzero", hits, misses)
	}
}

func TestShardedCapacityAndSpread(t *testing.T) {
	// Keys spread across shards must not evict each other while each shard
	// stays within its own bound.
	c := New(numShards) // one entry per shard
	for i := 0; i < numShards; i++ {
		var k Key
		k[0] = byte(i)
		c.Put(k, &Entry{Body: []byte{byte(i)}})
	}
	if c.Len() != numShards {
		t.Fatalf("Len = %d, want %d", c.Len(), numShards)
	}
	for i := 0; i < numShards; i++ {
		var k Key
		k[0] = byte(i)
		if _, ok := c.Get(k); !ok {
			t.Errorf("cross-shard entry %d evicted spuriously", i)
		}
	}
}

func TestDiskLayer(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	var k Key
	k[0] = 0xab
	want := &Entry{Body: []byte("body-bytes"), FencesPlaced: 3, FencesMerged: 1}
	c1.Put(k, want)

	// A second cache over the same directory (a fresh process) must see it.
	c2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok {
		t.Fatal("disk entry not found by a fresh cache")
	}
	if string(got.Body) != string(want.Body) ||
		got.FencesPlaced != want.FencesPlaced || got.FencesMerged != want.FencesMerged {
		t.Errorf("disk round-trip changed the entry: %+v != %+v", got, want)
	}

	// Corrupt entries are ignored, not fatal.
	var k2 Key
	k2[0] = 0xcd
	p := c2.path(k2)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(k2); ok {
		t.Error("corrupt disk entry was served")
	}
}

func TestDiskKeyCollisionFanout(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var k Key
		k[0] = 0x11 // same shard
		k[1] = byte(i)
		c.Put(k, &Entry{Body: []byte(fmt.Sprintf("e%d", i))})
	}
	c2, err := Open(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var k Key
		k[0] = 0x11
		k[1] = byte(i)
		e, ok := c2.Get(k)
		if !ok || string(e.Body) != fmt.Sprintf("e%d", i) {
			t.Errorf("entry %d lost or mixed up in the shared shard", i)
		}
	}
}

func TestModuleShapeRoundTrip(t *testing.T) {
	m := ir.NewModule("t")
	f := buildTestFunc(m)
	m.Global("counter").Init = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	body := EncodeBody(f)

	// A repro bundle carries the shape plus one encoded body: the decoded
	// skeleton must accept the body and reproduce the function exactly.
	shape := EncodeModuleShape(m)
	m2, err := DecodeModuleShape(shape)
	if err != nil {
		t.Fatal(err)
	}
	if g := m2.Global("counter"); g == nil || string(g.Init) != "\x01\x02\x03\x04\x05\x06\x07\x08" {
		t.Fatalf("global initializer lost in shape round-trip: %+v", m2.Global("counter"))
	}
	f2 := m2.Func("subject")
	if f2 == nil || !f2.External {
		t.Fatalf("shape skeleton function missing or already defined: %+v", f2)
	}
	blocks, err := DecodeBody(f2, body)
	if err != nil {
		t.Fatal(err)
	}
	f2.External = false
	f2.RestoreBody(blocks)
	if err := ir.VerifyFunc(f2); err != nil {
		t.Fatalf("replayed function invalid: %v", err)
	}
	if got, want := f2.String(), f.String(); got != want {
		t.Errorf("shape+body replay changed the function:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// Truncations must error, not panic.
	for _, n := range []int{0, 1, len(shape) / 2, len(shape) - 1} {
		if _, err := DecodeModuleShape(shape[:n]); err == nil {
			t.Errorf("decode of %d-byte shape truncation succeeded", n)
		}
	}
}

// Stats returns the cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
