package core_test

import (
	"fmt"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
)

// Clustering commits merges in sequential channel order no matter how
// many workers probe candidate legality, so the clustered netlist and
// the report are identical at any worker count. wagging-register and
// ssem restore a call, so there the verdict memo spans T2 rounds; a
// state bound of 12 rejects merges a run without one keeps.
func TestClusteringWorkerDeterminism(t *testing.T) {
	render := func(n *core.Netlist, rep *core.Report) string {
		return n.Format() + fmt.Sprintf("%+v", *rep)
	}
	for _, d := range designs.All() {
		for _, maxStates := range []int{0, 12} {
			n1, r1, err := core.T2ClusteringOpt(d.Control(), core.Options{Workers: 1, MaxStates: maxStates})
			if err != nil {
				t.Fatal(err)
			}
			n8, r8, err := core.T2ClusteringOpt(d.Control(), core.Options{Workers: 8, MaxStates: maxStates})
			if err != nil {
				t.Fatal(err)
			}
			if a, b := render(n1, r1), render(n8, r8); a != b {
				t.Errorf("%s MaxStates=%d: Workers=1 and Workers=8 disagree:\n--- serial ---\n%s\n--- wide ---\n%s",
					d.Name, maxStates, a, b)
			}
		}
	}
}

// tableThreeCompiles is how many candidate merges T2 clustering
// compiles per Table 3 design: one per distinct (channel, activator
// body, activated body). Compiling on every probe takes 24, 196, 78
// and 16.
var tableThreeCompiles = map[string]int64{
	"systolic-counter": 12,
	"wagging-register": 51,
	"stack":            32,
	"ssem":             4,
}

// Clustering compiles each distinct candidate once, at any worker
// count.
func TestClusteringCompileCount(t *testing.T) {
	for _, d := range designs.All() {
		want, ok := tableThreeCompiles[d.Name]
		if !ok {
			t.Fatalf("no compile count pinned for %s", d.Name)
		}
		for _, workers := range []int{1, 8} {
			m := core.NewVerdicts()
			if _, _, err := m.T2(d.Control(), core.Options{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if got := m.Compiles(); got != want {
				t.Errorf("%s Workers=%d: %d compiles, want %d", d.Name, workers, got, want)
			}
		}
	}
}

// A T2 restoration round re-runs T1 on a netlist that shares most
// components with the round before; every pair the earlier round
// already judged is a memo hit, so a pair compiles once per call.
func TestClusteringMemoSpansRounds(t *testing.T) {
	for _, name := range []string{"wagging-register", "ssem"} {
		d, err := designs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := core.Options{Workers: 2}
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
