package sim

import (
	"context"
	"errors"
	"testing"
)

func TestRunContextCancelStopsAtRoundBoundary(t *testing.T) {
	e, p := newTestEngine(t, 6)
	ctx, cancel := context.WithCancel(context.Background())

	// Cancel from inside round 3's round-end hook: the round must complete
	// (no mid-round abort) and the engine must stop before round 4 begins.
	e.SetRoundEnd(func(e *Engine) bool {
		if e.Round() == 3 {
			cancel()
		}
		return false
	})
	executed, err := e.RunContext(ctx, 10)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if executed != 3 {
		t.Fatalf("executed %d rounds, want 3", executed)
	}
	if e.Round() != 3 {
		t.Fatalf("engine at round %d, want 3", e.Round())
	}
	for slot, n := range p.steps {
		if n != 3 {
			t.Fatalf("slot %d stepped %d times, want 3 (cancel split a round)", slot, n)
		}
	}

	// A fresh context resumes exactly where the cancel landed.
	executed, err = e.RunContext(context.Background(), 2)
	if err != nil || executed != 2 {
		t.Fatalf("resume: executed %d, err %v; want 2, nil", executed, err)
	}
	if e.Round() != 5 {
		t.Fatalf("engine at round %d after resume, want 5", e.Round())
	}
}

func TestRunContextAlreadyCancelledRunsNothing(t *testing.T) {
	e, p := newTestEngine(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	executed, err := e.RunContext(ctx, 5)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if executed != 0 || e.Round() != 0 {
		t.Fatalf("executed %d rounds to round %d, want none", executed, e.Round())
	}
	for slot, n := range p.steps {
		if n != 0 {
			t.Fatalf("slot %d stepped %d times on a dead context", slot, n)
		}
	}
}

func TestRunIsRunContextBackground(t *testing.T) {
	e, _ := newTestEngine(t, 4)
	rounds, err := e.Run(4)
	if err != nil || rounds != 4 {
		t.Fatalf("Run = %d, %v; want 4, nil", rounds, err)
	}
}
