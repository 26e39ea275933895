package core

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lasagne/internal/core/cache"
	"lasagne/internal/diag/inject"
	"lasagne/internal/obj"
	"lasagne/internal/opt"
	"lasagne/internal/phoenix"
)

// The module key must change whenever anything that can change a clean
// translation's bytes changes: every field of the input object, every
// output-affecting Config field, and the direction. Fields that can only
// change degraded or failed results must leave it alone.
func TestModuleKeySoundness(t *testing.T) {
	bin, _ := buildX86(t)
	cfg := Default()
	base := moduleKey(x86ToArm, cfg, bin)

	// Every perturbation is distinct, so every key must be distinct too.
	seen := map[cache.Key]string{base: "the unperturbed input"}
	changed := func(what string, k cache.Key) {
		t.Helper()
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key equals that of %s", what, prev)
		}
		seen[k] = what
	}
	clone := func() *obj.File {
		f, err := obj.Unmarshal(bin.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	perturb := func(what string, edit func(f *obj.File)) {
		t.Helper()
		f := clone()
		edit(f)
		changed(what, moduleKey(x86ToArm, cfg, f))
	}

	// obj.File, field by field. A new field must be added to Marshal (which
	// the key hashes) and to this list.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(obj.File{}): 4, reflect.TypeOf(obj.Section{}): 3, reflect.TypeOf(obj.Symbol{}): 4,
	} {
		if typ.NumField() != n {
			t.Errorf("%s has %d fields, the key test knows %d: perturb the new ones", typ, typ.NumField(), n)
		}
	}
	perturb("arch", func(f *obj.File) { f.Arch = "arm64" })
	perturb("entry", func(f *obj.File) { f.Entry += "_" })
	perturb("extra section", func(f *obj.File) { f.Sections = append(f.Sections, obj.Section{Name: ".x"}) })
	perturb("extra symbol", func(f *obj.File) { f.Symbols = append(f.Symbols, obj.Symbol{Name: "x"}) })
	for i, s := range bin.Sections {
		i := i
		perturb("section "+s.Name+" name", func(f *obj.File) { f.Sections[i].Name += "_" })
		perturb("section "+s.Name+" addr", func(f *obj.File) { f.Sections[i].Addr++ })
		perturb("section "+s.Name+" length", func(f *obj.File) { f.Sections[i].Data = append(f.Sections[i].Data, 0) })
		for j := range s.Data {
			j := j
			perturb("section "+s.Name+" byte", func(f *obj.File) { f.Sections[i].Data[j] ^= 0x01 })
		}
	}
	for i, s := range bin.Symbols {
		i := i
		perturb("symbol "+s.Name+" name", func(f *obj.File) { f.Symbols[i].Name += "_" })
		perturb("symbol "+s.Name+" kind", func(f *obj.File) { f.Symbols[i].Kind++ })
		perturb("symbol "+s.Name+" addr", func(f *obj.File) { f.Symbols[i].Addr++ })
		perturb("symbol "+s.Name+" size", func(f *obj.File) { f.Symbols[i].Size++ })
	}

	// Config: every field is either keyed or observation-only. A new field
	// must be classified here (and keyed in moduleFingerprint if it can
	// change a clean translation's bytes).
	keyed := map[string]func(c *Config){
		"Refine":      func(c *Config) { c.Refine = !c.Refine },
		"MergeFences": func(c *Config) { c.MergeFences = !c.MergeFences },
		"Optimize":    func(c *Config) { c.Optimize = !c.Optimize },
		"VerifyIR":    func(c *Config) { c.VerifyIR = !c.VerifyIR },
		"WeakFences":  func(c *Config) { c.WeakFences = !c.WeakFences },
		"OptPasses":   func(c *Config) { c.OptPasses = []string{} },
	}
	observational := map[string]func(c *Config){
		"Jobs":         func(c *Config) { c.Jobs = 7 },
		"FuncBudget":   func(c *Config) { c.FuncBudget = 1 },
		"AllowPartial": func(c *Config) { c.AllowPartial = true },
		"ReproDir":     func(c *Config) { c.ReproDir = t.TempDir() },
		"FuncDone":     func(c *Config) { c.FuncDone = func(FuncEvent) error { return nil } },
		"Cache":        func(c *Config) { c.Cache = cache.New(0) },
		"Validate":     func(c *Config) { c.Validate = true }, // bypasses the tier
	}
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if keyed[name] == nil && observational[name] == nil {
			t.Errorf("Config.%s is not classified for the module key", name)
		}
	}
	for name, edit := range keyed {
		c := cfg
		edit(&c)
		changed("Config."+name, moduleKey(x86ToArm, c, bin))
	}
	c := cfg
	c.OptPasses = opt.StandardPipeline[:3]
	changed("a pass-list prefix", moduleKey(x86ToArm, c, bin))
	for name, edit := range observational {
		c := cfg
		edit(&c)
		if moduleKey(x86ToArm, c, bin) != base {
			t.Errorf("observation-only Config.%s changed the module key", name)
		}
	}

	changed("the direction", moduleKey(armToX86, cfg, bin))
	saved := PipelineVersion
	PipelineVersion += ";test-bump"
	changed("a bumped pipeline version", moduleKey(x86ToArm, cfg, bin))
	PipelineVersion = saved
}

// A record round-trips every Stats counter and every event field, and any
// truncation or trailing garbage makes it undecodable rather than wrong.
func TestModuleRecordRoundTrip(t *testing.T) {
	var st Stats
	ctrs := st.counters()
	if n := reflect.TypeOf(st).NumField(); len(ctrs) != n {
		t.Fatalf("Stats.counters lists %d of %d fields", len(ctrs), n)
	}
	for i, c := range ctrs {
		*c = i + 1
	}
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() == 0 {
			t.Errorf("Stats.%s is missing from counters", v.Type().Field(i).Name)
		}
	}
	bin, _ := buildX86(t)
	events := []FuncEvent{
		{Func: "main", Key: cache.Key{1, 2, 3}, Body: []byte("body-main"), Placed: 4, Merged: 1},
		{Func: "worker", Key: cache.Key{9}, Body: []byte("body-worker"), Placed: 7},
	}
	b := encodeModuleRecord(bin.Marshal(), &st, events)
	rec, err := decodeModuleRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.stats != st {
		t.Errorf("stats %+v, want %+v", rec.stats, st)
	}
	if !bytes.Equal(rec.out.Marshal(), bin.Marshal()) {
		t.Error("object differs after the round trip")
	}
	for i := range events {
		events[i].Keyed, events[i].CacheHit = true, true
	}
	if !reflect.DeepEqual(rec.events, events) {
		t.Errorf("events %+v, want %+v", rec.events, events)
	}
	for n := 0; n < len(b); n++ {
		if _, err := decodeModuleRecord(b[:n]); err == nil {
			t.Fatalf("a record truncated to %d of %d bytes decoded", n, len(b))
		}
	}
	if _, err := decodeModuleRecord(append(b[:len(b):len(b)], 0)); err == nil {
		t.Error("a record with trailing bytes decoded")
	}
}

// kernelSuite compiles the Phoenix suite plus spsc_ring to x86-64 and
// native Arm64 objects.
func kernelSuite(t *testing.T) (names []string, x86, arm []*obj.File) {
	t.Helper()
	var bs []phoenix.Benchmark
	bs = append(bs, phoenix.All()...)
	bs = append(bs, phoenix.LockFree()...)
	for _, b := range bs {
		x, a := buildBoth(t, b.Name, b.Source)
		names, x86, arm = append(names, b.Name), append(x86, x), append(arm, a)
	}
	return names, x86, arm
}

// recordFile finds the disk file holding key under a cache directory.
func recordFile(t *testing.T, dir string, key cache.Key) string {
	t.Helper()
	name := hex.EncodeToString(key[:])[2:] + ".lce"
	var found string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && info.Name() == name && !strings.Contains(path, "quarantine") {
			found = path
		}
		return err
	})
	if err != nil || found == "" {
		t.Fatalf("no disk file for the module record (%v)", err)
	}
	return found
}

// A bit-flipped or truncated module record on disk is quarantined and the
// translation recomputed: the damaged record is never served, and the
// recomputed one is published again.
func TestModuleRecordCorruptionQuarantined(t *testing.T) {
	bin, _ := buildX86(t)
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string]func([]byte) []byte{
		"bitflip":   func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b },
		"truncated": func(b []byte) []byte { return b[:len(b)-7] },
	}
	for name, dmg := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() Config {
				c, err := cache.Open(dir, 0)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Default()
				cfg.Cache = c
				return cfg
			}
			cfg := open()
			if _, _, _, err := Translate(bin, cfg); err != nil {
				t.Fatal(err)
			}
			path := recordFile(t, dir, moduleKey(x86ToArm, cfg, bin))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, dmg(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh process (cold memory layer) reads the damaged record.
			cfg = open()
			got, _, rep, err := Translate(bin, cfg)
			if err != nil || rep.Len() != 0 {
				t.Fatalf("translation over a damaged record: %v\n%s", err, rep)
			}
			if !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Error("translation over a damaged record differs from the reference")
			}
			if q := cfg.Cache.Health().Quarantined; q != 1 {
				t.Errorf("quarantined %d entries, want exactly the damaged record", q)
			}

			// The recomputed record was republished whole.
			cfg = open()
			got, st, _, err := Translate(bin, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if h := cfg.Cache.Health(); h.Quarantined != 0 || h.Hits != 1 || h.Misses != 0 {
				t.Errorf("third run: %+v, want one clean module hit", h)
			}
			if st.CacheMisses != 0 || !bytes.Equal(got.Marshal(), want.Marshal()) {
				t.Error("republished record does not replay the reference")
			}
		})
	}
}

// A validated run bypasses the module tier: a poisoned record that an
// unvalidated run would replay can never reach it.
func TestModuleTierBypassedUnderValidate(t *testing.T) {
	bin, _ := buildX86(t)
	other := buildPhoenixX86(t, "histogram", phoenix.Get("histogram").Source)
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	poison, _, _, err := Translate(other, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Cache = cache.New(0)
	if _, _, _, err := Translate(bin, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Cache.Put(moduleKey(x86ToArm, cfg, bin),
		&cache.Entry{Body: encodeModuleRecord(poison.Marshal(), &Stats{}, nil)})

	// The tier trusts its key: an unvalidated run serves the poisoned
	// record. This is what makes the bypass below meaningful.
	got, _, _, err := Translate(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), poison.Marshal()) {
		t.Fatal("the poisoned record was not served to an unvalidated run")
	}

	cfg.Validate = true
	got, st, rep, err := Translate(bin, cfg)
	if err != nil || rep.Len() != 0 {
		t.Fatalf("validated run: %v\n%s", err, rep)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Error("a validated run replayed the poisoned module record")
	}
	if st.CacheHits == 0 {
		t.Error("a validated run did not use the (clean) suffix tier")
	}
}

// Concurrent translations of one module over a shared cache lift it once:
// one leader runs the pipeline, everyone else replays its record.
func TestConcurrentIdenticalModulesLiftOnce(t *testing.T) {
	defer inject.Reset()
	bin, _ := buildX86(t)
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Cache = cache.New(0)
	// Slow the leader's lift so the others overlap its flight.
	inject.Arm("lift:worker", inject.Stall)

	const runs = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	leaders := 0
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, st, rep, err := Translate(bin, cfg)
			if err != nil || rep.Len() != 0 {
				t.Errorf("concurrent translation: %v\n%s", err, rep)
				return
			}
			if !bytes.Equal(out.Marshal(), want.Marshal()) {
				t.Error("concurrent translation differs from the reference")
			}
			mu.Lock()
			if st.CacheMisses > 0 {
				leaders++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if leaders != 1 {
		t.Errorf("%d of %d concurrent translations ran the pipeline, want 1", leaders, runs)
	}
}
