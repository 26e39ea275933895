package inject

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDisarmedHitIsNil(t *testing.T) {
	Reset()
	if err := Hit("refine:f"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
}

func TestFailAndPanicModes(t *testing.T) {
	Reset()
	defer Reset()
	Arm("fences:f", Fail)
	err := Hit("fences:f")
	var ie *Error
	if !errors.As(err, &ie) || ie.Point != "fences:f" {
		t.Fatalf("got %v", err)
	}
	if err := Hit("fences:other"); err != nil {
		t.Fatalf("unarmed sibling point fired: %v", err)
	}

	Arm("opt:f", Panic)
	func() {
		defer func() {
			v := recover()
			if v == nil {
				t.Fatal("expected panic")
			}
			if pe, ok := v.(*Error); !ok || pe.Point != "opt:f" {
				t.Fatalf("panic value %v", v)
			}
		}()
		Hit("opt:f")
	}()

	Disarm("opt:f")
	Disarm("fences:f")
	if err := Hit("fences:f"); err != nil {
		t.Fatalf("disarm did not take: %v", err)
	}
}

func TestStallMode(t *testing.T) {
	Reset()
	defer Reset()
	old := StallDuration
	StallDuration = 10 * time.Millisecond
	defer func() { StallDuration = old }()
	Arm("opt:slow", Stall)
	start := time.Now()
	if err := Hit("opt:slow"); err != nil {
		t.Fatalf("stall returned %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("stall too short: %v", d)
	}
}

func TestStallEndsWithContext(t *testing.T) {
	Reset()
	defer Reset()
	old := StallDuration
	StallDuration = time.Hour
	defer func() { StallDuration = old }()
	Arm("fences:slow", Stall)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := HitContext(ctx, "fences:slow"); err != nil {
		t.Fatalf("stall returned %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond || d > time.Minute {
		t.Errorf("stall lasted %v, want about the context's 10ms", d)
	}
}
