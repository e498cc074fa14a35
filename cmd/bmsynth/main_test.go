package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestModes runs the built command on pulse.bms, whose output idle
// never toggles: its empty cover maps to the tied-low net, which
// hazver must read as 0. Both mapping modes exit 0, speed mode with
// hazver's static report and area mode without one, and an unknown
// -mode exits 1 before anything is synthesized.
func TestModes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bmsynth")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building bmsynth: %v\n%s", err, out)
	}
	spec := filepath.Join("..", "balsabm", "testdata", "pulse.bms")
	cases := []struct {
		mode         string
		code         int
		want, absent string // stdout must contain want and not absent
		stderr       string
	}{
		{"speed", 0, "; hazver static: 1 units, 2 functions, 8 bursts, 22 ternary passes", "error", ""},
		{"area", 0, "; pulse [area-shared]: 2 cells", "hazver", ""},
		{"bogus", 1, "", "pulse", `bmsynth: unknown mode "bogus" (want speed or area)`},
	}
	for _, c := range cases {
		cmd := exec.Command(bin, "-mode", c.mode, spec)
		var out, errOut bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errOut
		code := 0
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				t.Fatalf("-mode %s: %v", c.mode, err)
			}
			code = ee.ExitCode()
		}
		if code != c.code {
			t.Errorf("-mode %s: exit %d, want %d; stderr:\n%s", c.mode, code, c.code, errOut.String())
		}
		if !strings.Contains(out.String(), c.want) || strings.Contains(out.String(), c.absent) {
			t.Errorf("-mode %s: stdout wants %q and no %q:\n%s", c.mode, c.want, c.absent, out.String())
		}
		if got := strings.TrimSpace(errOut.String()); got != c.stderr {
			t.Errorf("-mode %s: stderr %q, want %q", c.mode, got, c.stderr)
		}
	}
}
