package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// The sequential sweep commits exactly what the speculative one did:
// the same clustered netlist and the same report, Skipped included, on
// every built-in and Balsa-compiled design, at state bounds that reject
// a growing share of merges, under T1 alone and under T2. The reference
// runs at 1 and 8 workers, so its own commit order is also checked not
// to depend on the worker count. wagging-register and ssem restore a
// call, so there the comparison spans T2 rounds.
func TestClusteringMatchesSpeculativeSweep(t *testing.T) {
	render := func(n *core.Netlist, rep *core.Report) string {
		return n.Format() + fmt.Sprintf("%+v", *rep)
	}
	balsa, err := designs.AllBalsa()
	if err != nil {
		t.Fatal(err)
	}
	algos := []struct {
		name        string
		seq         func(*core.Netlist, core.Options) (*core.Netlist, *core.Report, error)
		speculative func(*core.Netlist, core.Options, int) (*core.Netlist, *core.Report, error)
	}{
		{"T1", core.T1ClusteringOpt, core.SpeculativeT1},
		{"T2", core.T2ClusteringOpt, core.SpeculativeT2},
	}
	for _, d := range append(designs.All(), balsa...) {
		for _, maxStates := range []int{0, 6, 8, 12, 16} {
			opt := core.Options{MaxStates: maxStates}
			for _, a := range algos {
				n, rep, err := a.seq(d.Control(), opt)
				if err != nil {
					t.Fatal(err)
				}
				got := render(n, rep)
				for _, workers := range []int{1, 8} {
					rn, rrep, err := a.speculative(d.Control(), opt, workers)
					if err != nil {
						t.Fatal(err)
					}
					if want := render(rn, rrep); got != want {
						t.Errorf("%s %s MaxStates=%d: sequential sweep and speculative sweep at %d workers disagree:\n--- sequential ---\n%s\n--- speculative ---\n%s",
							d.Name, a.name, maxStates, workers, got, want)
					}
				}
			}
		}
	}
}

// A clustering run checks its context before every probe: a run whose
// context is already cancelled returns the context's error without
// compiling a candidate.
func TestClusteringCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range designs.All() {
		m := core.NewVerdicts()
		if _, _, err := m.T2(d.Control(), core.Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled run returned %v, want context.Canceled", d.Name, err)
		}
		if got := m.Compiles(); got != 0 {
			t.Errorf("%s: cancelled run compiled %d candidates, want 0", d.Name, got)
		}
	}
}

// tableThreeCompiles is how many candidate merges T2 clustering
// compiles per Table 3 design: one per distinct (channel, activator
// body, activated body) the sequential sweeps probe. Compiling on every
// probe would take 8, 27, 12 and 7.
var tableThreeCompiles = map[string]int64{
	"systolic-counter": 8,
	"wagging-register": 23,
	"stack":            12,
	"ssem":             4,
}

// Clustering compiles each distinct candidate once.
func TestClusteringCompileCount(t *testing.T) {
	for _, d := range designs.All() {
		want, ok := tableThreeCompiles[d.Name]
		if !ok {
			t.Fatalf("no compile count pinned for %s", d.Name)
		}
		m := core.NewVerdicts()
		if _, _, err := m.T2(d.Control(), core.Options{}); err != nil {
			t.Fatal(err)
		}
		if got := m.Compiles(); got != want {
			t.Errorf("%s: %d compiles, want %d", d.Name, got, want)
		}
	}
}

// A T2 restoration round re-runs T1 on a netlist that shares most
// components with the round before; every pair the earlier round
// already judged is a memo hit, so a later round compiles only the
// pairs no earlier round judged (wagging-register: 14, then 9).
func TestClusteringMemoSpansRounds(t *testing.T) {
	for _, name := range []string{"wagging-register", "ssem"} {
		d, err := designs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{}
		m := core.NewVerdicts()
		restored, err := m.T2Round(d.Control(), map[string]bool{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) == 0 {
			t.Fatalf("%s: first round restored no call; the test needs a second round", name)
		}
		noSplit := map[string]bool{}
		for _, c := range restored {
			noSplit[c] = true
		}
		first := m.Compiles()
		if _, err := m.T2Round(d.Control(), noSplit, opt); err != nil {
			t.Fatal(err)
		}
		second := m.Compiles() - first
		fresh := core.NewVerdicts()
		if _, err := fresh.T2Round(d.Control(), noSplit, opt); err != nil {
			t.Fatal(err)
		}
		if second >= fresh.Compiles() {
			t.Errorf("%s: second round compiled %d with the first round's memo, %d without: nothing reused",
				name, second, fresh.Compiles())
		}
		if first+second != tableThreeCompiles[name] {
			t.Errorf("%s: rounds compiled %d+%d, want %d in all", name, first, second, tableThreeCompiles[name])
		}
		// Every pair of the whole T2 run is now known.
		before := m.Compiles()
		if _, _, err := m.T2(d.Control(), opt); err != nil {
			t.Fatal(err)
		}
		if got := m.Compiles() - before; got != 0 {
			t.Errorf("%s: re-running T2 on a warm memo compiled %d candidates, want 0", name, got)
		}
	}
}

// The ordered verification API reports the grid cells in grid order,
// and agrees with the map API.
func TestVerifyAllPairsOrdered(t *testing.T) {
	grid := core.VerificationGrid()
	results := core.VerifyAllPairsOrdered()
	if len(results) != len(grid) {
		t.Fatalf("got %d results for %d grid cells", len(results), len(grid))
	}
	for i, r := range results {
		if r.Pair != grid[i] {
			t.Errorf("result %d is %v, want %v", i, r.Pair, grid[i])
		}
		if r.Err != nil {
			t.Errorf("pair %v failed: %v", r.Pair, r.Err)
		}
	}
	m := core.VerifyAllPairs()
	if len(m) != len(results) {
		t.Errorf("map has %d entries, ordered %d", len(m), len(results))
	}
}
