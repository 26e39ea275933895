package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lasagne/internal/core/cache"
	"lasagne/internal/diag"
	"lasagne/internal/obj"
)

// The FuncDone hook is the streaming daemon's tap into the fan-out. Its
// contract: one event per defined function, keys that match the cache's
// content addresses, bodies that are the exact canonical encodings of the
// final module's functions — and zero influence on the translation itself.
func TestFuncDoneEventsMatchBatch(t *testing.T) {
	bin, _ := buildX86(t)

	// Reference: the plain batch translation and its final IR.
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	refIR, _, _, err := TranslateToIR(bin, Default())
	if err != nil {
		t.Fatal(err)
	}

	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		events := map[string]FuncEvent{}
		cfg := Default()
		cfg.Jobs = jobs
		cfg.FuncDone = func(ev FuncEvent) error {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := events[ev.Func]; dup {
				t.Errorf("jobs=%d: duplicate event for %s", jobs, ev.Func)
			}
			events[ev.Func] = ev
			return nil
		}
		got, _, rep, err := Translate(bin, cfg)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if rep.Len() != 0 {
			t.Fatalf("jobs=%d: diagnostics on a clean module:\n%s", jobs, rep)
		}
		if !bytes.Equal(got.Marshal(), want.Marshal()) {
			t.Errorf("jobs=%d: hooked translation is not byte-identical to batch", jobs)
		}

		// One event per defined function, each body the canonical encoding
		// of the matching final function.
		defined := 0
		for _, f := range refIR.Funcs {
			if f.External || len(f.Blocks) == 0 {
				continue
			}
			defined++
			ev, ok := events[f.Name]
			if !ok {
				t.Errorf("jobs=%d: no event for %s", jobs, f.Name)
				continue
			}
			if ev.Degraded || ev.CacheHit {
				t.Errorf("jobs=%d: %s unexpectedly degraded=%t hit=%t", jobs, f.Name, ev.Degraded, ev.CacheHit)
			}
			if !ev.Keyed {
				t.Errorf("jobs=%d: %s event carries no key", jobs, f.Name)
			}
			if !bytes.Equal(ev.Body, cache.EncodeBody(f)) {
				t.Errorf("jobs=%d: %s event body differs from the final module's encoding", jobs, f.Name)
			}
		}
		if len(events) != defined {
			t.Errorf("jobs=%d: %d events for %d defined functions", jobs, len(events), defined)
		}
	}
}

// Event keys are the cache's content addresses: a second translation with a
// shared cache must report every event as a hit under the same key.
func TestFuncDoneKeysAreCacheKeys(t *testing.T) {
	bin, _ := buildX86(t)
	c := cache.New(0)

	run := func() map[string]FuncEvent {
		var mu sync.Mutex
		events := map[string]FuncEvent{}
		cfg := Default()
		cfg.Cache = c
		cfg.FuncDone = func(ev FuncEvent) error {
			mu.Lock()
			events[ev.Func] = ev
			mu.Unlock()
			return nil
		}
		if _, _, _, err := Translate(bin, cfg); err != nil {
			t.Fatal(err)
		}
		return events
	}
	cold := run()
	warm := run()
	if len(cold) == 0 || len(cold) != len(warm) {
		t.Fatalf("event counts differ: cold %d, warm %d", len(cold), len(warm))
	}
	for fn, cev := range cold {
		wev := warm[fn]
		if cev.CacheHit {
			t.Errorf("%s: cold run reported a cache hit", fn)
		}
		if !wev.CacheHit {
			t.Errorf("%s: warm run did not hit the cache", fn)
		}
		if cev.Key != wev.Key {
			t.Errorf("%s: key changed between runs", fn)
		}
		if !bytes.Equal(cev.Body, wev.Body) {
			t.Errorf("%s: body changed between runs", fn)
		}
	}
}

// A hook error cancels the translation: the returned error wraps
// ErrHookAborted, and functions past the aborting one are never delivered.
func TestFuncDoneAborts(t *testing.T) {
	bin, _ := buildX86(t)
	boom := errors.New("reader went away")
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		delivered := 0
		cfg := Default()
		cfg.Jobs = jobs
		cfg.FuncDone = func(ev FuncEvent) error {
			mu.Lock()
			delivered++
			mu.Unlock()
			return boom
		}
		out, _, rep, err := Translate(bin, cfg)
		if err == nil || out != nil {
			t.Fatalf("jobs=%d: aborted translation succeeded", jobs)
		}
		if !errors.Is(err, ErrHookAborted) {
			t.Errorf("jobs=%d: error does not wrap ErrHookAborted: %v", jobs, err)
		}
		if !rep.HasErrors() {
			t.Errorf("jobs=%d: aborted translation left no Error diagnostic", jobs)
		}
		// Every worker may complete its in-flight function before noticing
		// the abort, so at most `jobs` events can be delivered.
		if delivered > jobs {
			t.Errorf("jobs=%d: %d events delivered after abort", jobs, delivered)
		}
	}
}

// Degraded functions are delivered with Degraded set and no key: their
// conservative fallbacks are not content-addressed, so a streaming client
// can never acknowledge (and skip recomputation of) a degraded result.
func TestFuncDoneDegradedUnkeyed(t *testing.T) {
	bin, _ := buildX86(t)
	var mu sync.Mutex
	events := map[string]FuncEvent{}
	cfg := Default()
	cfg.Cache = cache.New(0)
	// A 1ns function budget deterministically degrades every function.
	cfg.FuncBudget = 1
	cfg.FuncDone = func(ev FuncEvent) error {
		mu.Lock()
		events[ev.Func] = ev
		mu.Unlock()
		return nil
	}
	out, _, rep, err := Translate(bin, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded()) == 0 {
		t.Fatal("nothing degraded under a 1ns function budget")
	}
	for _, fn := range rep.Degraded() {
		ev, ok := events[fn]
		if !ok {
			t.Errorf("no event for degraded %s", fn)
			continue
		}
		if !ev.Degraded {
			t.Errorf("%s: degraded function delivered without Degraded", fn)
		}
		if ev.Keyed {
			t.Errorf("%s: degraded function delivered with a resume key", fn)
		}
	}
	if out == nil {
		t.Fatal("no output object")
	}
}

// On a module-tier hit the hook still sees one event per function, now in
// module order, each a keyed cache hit carrying the cold run's key, body and
// fence counts. A hook error on a hit fails exactly as in the pipeline.
func TestFuncDoneModuleHitReplay(t *testing.T) {
	bin, _ := buildX86(t)
	refIR, _, _, err := TranslateToIR(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, f := range refIR.Funcs {
		if !f.External && len(f.Blocks) > 0 {
			order = append(order, f.Name)
		}
	}

	c := cache.New(0)
	run := func(hook func(FuncEvent) error) (*obj.File, *Stats, *diag.Report, error) {
		cfg := Default()
		cfg.Cache = c
		cfg.FuncDone = hook
		return Translate(bin, cfg)
	}
	var mu sync.Mutex
	cold := map[string]FuncEvent{}
	want, _, _, err := run(func(ev FuncEvent) error {
		mu.Lock()
		cold[ev.Func] = ev
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var warm []FuncEvent
	got, st, rep, err := run(func(ev FuncEvent) error {
		warm = append(warm, ev)
		return nil
	})
	if err != nil || rep.Len() != 0 {
		t.Fatalf("warm run: %v\n%s", err, rep)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Error("warm hooked run differs from the cold one")
	}
	if st.CacheHits != len(order) || st.CacheMisses != 0 {
		t.Errorf("warm stats: hits=%d misses=%d, want %d hits", st.CacheHits, st.CacheMisses, len(order))
	}
	if len(warm) != len(order) {
		t.Fatalf("%d warm events for %d functions", len(warm), len(order))
	}
	for i, ev := range warm {
		cev := cold[ev.Func]
		switch {
		case ev.Func != order[i]:
			t.Errorf("event %d is %s, want %s (module order)", i, ev.Func, order[i])
		case !ev.CacheHit || !ev.Keyed || ev.Degraded:
			t.Errorf("%s: hit=%t keyed=%t degraded=%t, want a keyed clean hit", ev.Func, ev.CacheHit, ev.Keyed, ev.Degraded)
		case ev.Key != cev.Key || !bytes.Equal(ev.Body, cev.Body) || ev.Placed != cev.Placed || ev.Merged != cev.Merged:
			t.Errorf("%s: replayed event differs from the cold one", ev.Func)
		}
	}

	boom := errors.New("reader went away")
	delivered := 0
	out, _, rep, err := run(func(FuncEvent) error {
		delivered++
		return boom
	})
	if out != nil || !errors.Is(err, ErrHookAborted) || !rep.HasErrors() {
		t.Errorf("aborted hit: out=%v err=%v errors=%t, want a failure wrapping ErrHookAborted", out != nil, err, rep.HasErrors())
	}
	if delivered != 1 {
		t.Errorf("%d events delivered after the abort, want 1", delivered)
	}
}

// A hooked translation never holds the module tier's flight: a consumer
// stalled in its hook (a slow stream reader) must not make a plain request
// for the same module wait behind it.
func TestBlockedHookDoesNotHoldModuleFlight(t *testing.T) {
	bin, _ := buildX86(t)
	want, _, _, err := Translate(bin, Default())
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(0)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hooked := Default()
	hooked.Cache = c
	hooked.FuncDone = func(FuncEvent) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		return nil
	}
	done := make(chan error, 1)
	go func() {
		_, _, _, err := Translate(bin, hooked)
		done <- err
	}()
	<-entered

	// If the stalled run held the flight, this one would wait out its
	// deadline and fail.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	plain := Default()
	plain.Cache = c
	got, _, _, err := TranslateContext(ctx, bin, plain)
	close(release)
	if err != nil {
		t.Fatalf("plain translation behind a stalled hook: %v", err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Error("plain translation differs from the reference")
	}
	if err := <-done; err != nil {
		t.Errorf("hooked translation: %v", err)
	}
}
