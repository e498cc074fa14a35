package chtobm_test

// The fuzzer in fuzz_test.go checks the paper's correct-by-construction
// claim: legal programs always compile to valid Burst-Mode specs. This
// file checks the other half of the contract, between the generator,
// ch.Validate and the chlint analyzer: all three must agree on what is
// legal. (It lives in an external test package because analysis imports
// core, which imports chtobm.)

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"balsabm/internal/analysis"
	"balsabm/internal/ch"
	"balsabm/internal/core"
)

// genLegal mirrors fuzz_test.go's generator: expressions legal by
// construction per Table 1.
type genLegal struct {
	rng  *rand.Rand
	next int
}

func (g *genLegal) fresh() string {
	g.next++
	return fmt.Sprintf("c%d", g.next)
}

func (g *genLegal) gen(act ch.Activity, depth int) ch.Expr {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		return &ch.Chan{Kind: ch.PToP, Act: act, Name: g.fresh()}
	}
	if act == ch.Active {
		switch g.rng.Intn(4) {
		case 0:
			return &ch.Op{Kind: ch.EncEarly, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		case 1:
			return &ch.Op{Kind: ch.EncMiddle, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		case 2:
			return &ch.Op{Kind: ch.Seq, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		default:
			return &ch.Op{Kind: ch.SeqOv, A: g.gen(ch.Active, depth-1), B: g.gen(ch.Active, depth-1)}
		}
	}
	switch g.rng.Intn(5) {
	case 0:
		return &ch.Op{Kind: ch.EncEarly, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 1:
		return &ch.Op{Kind: ch.EncMiddle, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 2:
		return &ch.Op{Kind: ch.EncLate, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	case 3:
		return &ch.Op{Kind: ch.Seq, A: g.gen(ch.Passive, depth-1), B: g.genAny(depth - 1)}
	default:
		return &ch.Op{Kind: ch.Mutex, A: g.gen(ch.Passive, depth-1), B: g.gen(ch.Passive, depth-1)}
	}
}

func (g *genLegal) genAny(depth int) ch.Expr {
	if g.rng.Intn(2) == 0 {
		return g.gen(ch.Active, depth)
	}
	return g.gen(ch.Passive, depth)
}

func netlistOf(e ch.Expr) *core.Netlist {
	return &core.Netlist{Components: []*ch.Program{{Name: "fuzz", Body: e}}}
}

func legalityErrors(ds []analysis.Diag) []analysis.Diag {
	var out []analysis.Diag
	for _, d := range ds {
		if d.Code == "CH001" {
			out = append(out, d)
		}
	}
	return out
}

// TestFuzzAnalyzerAcceptsLegal: programs that are legal by
// construction (and accepted by ch.Validate) produce no CH001
// diagnostics — the analyzer never cries wolf on Table 1.
func TestFuzzAnalyzerAcceptsLegal(t *testing.T) {
	rng := rand.New(rand.NewSource(20020304))
	for i := 0; i < 300; i++ {
		g := &genLegal{rng: rng}
		e := &ch.Rep{Body: &ch.Op{
			Kind: ch.EncEarly,
			A:    &ch.Chan{Kind: ch.PToP, Act: ch.Passive, Name: "act"},
			B:    g.genAny(rng.Intn(4) + 1),
		}}
		if err := ch.Validate(e); err != nil {
			t.Fatalf("generator produced an illegal program: %v", err)
		}
		if errs := legalityErrors(analysis.Analyze(netlistOf(e))); len(errs) > 0 {
			t.Fatalf("fuzz %d: validator accepts but analyzer reports %d CH001:\n%s\n%s",
				i, len(errs), analysis.Format(errs, ""), ch.Format(e))
		}
	}
}

// TestFuzzAnalyzerRejectsMutated: flipping one operator in a legal
// program so ch.Validate rejects it must also produce at least one
// CH001 from the analyzer — both reject the same programs.
func TestFuzzAnalyzerRejectsMutated(t *testing.T) {
	kinds := []ch.OpKind{ch.EncEarly, ch.EncMiddle, ch.EncLate, ch.Seq, ch.SeqOv, ch.Mutex}
	rng := rand.New(rand.NewSource(42))
	rejected := 0
	for i := 0; i < 400; i++ {
		g := &genLegal{rng: rng}
		e := g.genAny(rng.Intn(4) + 2)
		// Mutate one random Op node's kind.
		var ops []*ch.Op
		ch.Walk(e, func(x ch.Expr) {
			if op, ok := x.(*ch.Op); ok {
				ops = append(ops, op)
			}
		})
		if len(ops) == 0 {
			continue
		}
		op := ops[rng.Intn(len(ops))]
		op.Kind = kinds[rng.Intn(len(kinds))]
		valid := ch.Validate(e) == nil
		errs := legalityErrors(analysis.Analyze(netlistOf(e)))
		if valid && len(errs) > 0 {
			t.Fatalf("fuzz %d: validator accepts, analyzer rejects:\n%s\n%s",
				i, analysis.Format(errs, ""), ch.Format(e))
		}
		if !valid {
			rejected++
			if len(errs) == 0 {
				t.Fatalf("fuzz %d: validator rejects (%v), analyzer silent:\n%s",
					i, ch.Validate(e), ch.Format(e))
			}
		}
	}
	if rejected < 50 {
		t.Fatalf("mutation fuzzer too tame: only %d rejections", rejected)
	}
}

// TestLintCorpusAgreement: for every examples/lint file, the analyzer
// finds errors exactly when parse-then-validate rejects it, except for
// netlist-level findings (CH01x, CH03x, CH04x) that ch.Validate does
// not model. This keeps the broken corpus honest: everything tagged as
// an error either fails validation or fails a check validation is too
// narrow to express.
func TestLintCorpusAgreement(t *testing.T) {
	files, err := filepath.Glob("../../examples/lint/*.ch")
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus missing: %v (%d files)", err, len(files))
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		ds := analysis.LintSource(string(src))
		// Lint input is either a netlist of (program ...) forms or a
		// single bare expression; try both parse shapes.
		var bodies []ch.Expr
		if n, err := core.ParseNetlist(string(src)); err == nil {
			for _, p := range n.Components {
				bodies = append(bodies, p.Body)
			}
		} else if e, err := ch.Parse(string(src)); err == nil {
			bodies = append(bodies, e)
		} else {
			// Parse failures must surface as CH000.
			if len(ds) != 1 || ds[0].Code != "CH000" {
				t.Errorf("%s: parse fails (%v) but lint says:\n%s",
					filepath.Base(file), err, analysis.Format(ds, ""))
			}
			continue
		}
		validates := true
		for _, body := range bodies {
			if ch.Validate(body) != nil {
				validates = false
			}
		}
		if !validates && !analysis.HasErrors(ds) {
			t.Errorf("%s: validation rejects but lint is error-free", filepath.Base(file))
		}
		if validates {
			// Any lint error here must be a netlist/phase-level check
			// beyond single-program validation.
			for _, d := range ds {
				if d.Severity != analysis.SevError {
					continue
				}
				switch d.Code {
				case "CH010", "CH011", "CH012", "CH014", "CH030", "CH040":
				default:
					t.Errorf("%s: lint error %s on a program ch.Validate accepts", filepath.Base(file), d.Code)
				}
			}
		}
	}
}
