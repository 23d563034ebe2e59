package main

import (
	"bytes"
	"strings"
	"testing"

	"sosf"
)

// TestReconfigureSmoke runs the example end to end with a tiny population:
// three rings scale out to four and the last swaps to a star, and the
// stack must have re-converged on the final configuration.
func TestReconfigureSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, sosf.WithNodes(48)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "all layers converged") {
		t.Fatalf("reconfigure never converged:\n%s", out)
	}
	if !strings.Contains(out, `final state: "rings_3@120"`) || !strings.Contains(out, "converged=true") {
		t.Fatalf("final state is not the converged four-ring topology:\n%s", out)
	}
}
