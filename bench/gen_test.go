package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"

	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/server"
)

var update = flag.Bool("update", false, "rewrite the seed-1 inputs and expected digests under testdata/")

// generateChecked runs the generator with the workloads' ops as its
// filters — a cold RunSynth for corpus netlists, a RunSynth sharing one
// controller tier (as the daemon's store does) for edits — and pins the
// digest of every kept input's output.
func generateChecked(t *testing.T, seed int64) (*inputs, *expected) {
	t.Helper()
	ctx := context.Background()
	exp := &expected{}
	keep := func(digests *[]string, ctl flow.ControllerCache) accept {
		return func(n *core.Netlist) bool {
			res, err := server.RunSynth(ctx, synthRequest(n.Format(), runtime.NumCPU(), ""), &flow.Metrics{}, ctl)
			if err != nil {
				return false
			}
			d, _, _, err := synthDigest(res)
			if err != nil {
				return false
			}
			*digests = append(*digests, d)
			return true
		}
	}
	in, err := generate(seed, keep(&exp.Corpus, nil), keep(&exp.Edits, flow.NewMemoryControllerCache()))
	if err != nil {
		t.Fatal(err)
	}
	return in, exp
}

// pinFixed adds the digests of the inputs that do not depend on the
// seed: the Table 3 designs and the stack base job.
func pinFixed(t *testing.T, exp *expected) {
	t.Helper()
	rs, err := flow.RunAll(&flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	exp.Table3 = map[string]string{}
	for _, r := range rs {
		exp.Table3[r.Design] = digest([]byte(r.DebugString()))
	}
	res, err := server.RunSynth(context.Background(),
		synthRequest(designs.Stack().Control().Format(), runtime.NumCPU(), ""), &flow.Metrics{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Stack, _, _, err = synthDigest(res); err != nil {
		t.Fatal(err)
	}
}

// TestInputs regenerates seed 1 and checks that it reproduces the
// committed corpus, edit list and expected digests byte for byte
// (-update rewrites them instead).
func TestInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every generated input")
	}
	in, exp := generateChecked(t, 1)
	pinFixed(t, exp)
	corpus, edits := formatCorpus(in.Corpus), formatEdits(in.Edits)
	if *update {
		expJSON, err := json.MarshalIndent(exp, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		for path, data := range map[string]string{
			"testdata/corpus-seed1.ch":     corpus,
			"testdata/edits-seed1.ch":      edits,
			"testdata/expected-seed1.json": string(expJSON) + "\n",
		} {
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if corpus != corpusText {
		t.Error("regenerated seed-1 corpus differs from testdata/corpus-seed1.ch")
	}
	if edits != editsText {
		t.Error("regenerated seed-1 edit list differs from testdata/edits-seed1.ch")
	}
	committed, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp, committed) {
		t.Error("regenerated seed-1 digests differ from testdata/expected-seed1.json")
	}
}

// TestInputsOtherSeed checks that another seed draws a different
// corpus and edit list, every input of which synthesizes.
func TestInputsOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes every generated input")
	}
	in, _ := generateChecked(t, 2)
	if formatCorpus(in.Corpus) == corpusText || formatEdits(in.Edits) == editsText {
		t.Fatal("seed 2 drew the seed-1 inputs")
	}
}
