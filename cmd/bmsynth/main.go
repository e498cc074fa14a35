// Command bmsynth synthesizes a Burst-Mode specification into
// hazard-free two-level logic and technology-maps it — the Minimalist +
// Design Compiler stage of the paper's flow.
//
// Usage:
//
//	bmsynth [-mode speed|area] [-verilog] file.bms
//
// The input is the .bms text format (see chc bms). Output: a
// Minimalist-style .sol report, a mapping summary, and optionally
// structural Verilog. A speed-mode mapping is verified by hazver, the
// flow's static hazard check, on every specified burst; every mapping
// is audited by netlint. Either tier's error findings exit 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"balsabm/internal/bm"
	"balsabm/internal/cell"
	"balsabm/internal/hazver"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/techmap"
)

func main() {
	mode := flag.String("mode", "speed", "mapping mode: speed (split NAND-NAND) or area (shared, peepholes)")
	verilog := flag.Bool("verilog", false, "print structural Verilog")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: bmsynth [-mode speed|area] [-verilog] file.bms")
		os.Exit(2)
	}
	m := techmap.SpeedSplit
	if *mode == "area" {
		m = techmap.AreaShared
	} else if *mode != "speed" {
		fail(fmt.Errorf("unknown mode %q (want speed or area)", *mode))
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	sp, err := bm.Parse(string(data))
	if err != nil {
		fail(err)
	}
	if err := sp.Check(); err != nil {
		fail(err)
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		fail(err)
	}
	fmt.Print(ctrl.Sol())

	lib := cell.AMS035()
	nl, err := techmap.MapController(ctrl, m, lib)
	if err != nil {
		fail(err)
	}
	if m == techmap.SpeedSplit {
		// Static hazard verification of the mapped netlist on every
		// specified burst: HZ-errors are fatal, warnings print as
		// comments, and the HZ200 static report becomes a summary line.
		res := hazver.Audit(nl.Name, []hazver.Unit{hazver.ControllerUnit(nl.Name, ctrl, nl)}, lib, hazver.Options{})
		for _, d := range res.Diags {
			if d.Severity != hazver.SevInfo {
				fmt.Printf("; hazver: %s\n", d.String())
			}
		}
		if hazver.HasErrors(res.Diags) {
			fail(fmt.Errorf("hazver: mapped logic can glitch or diverge on a specified burst"))
		}
		fmt.Printf("; hazver static: %s\n", res.Stats)
	}
	// Structural audit of the mapped netlist: NL-errors are fatal (a
	// miswired single controller must not ship as Verilog), warnings
	// print as comments, and the NL200 static report becomes the
	// summary's static line.
	res := netlint.Audit(nl, lib)
	for _, d := range res.Diags {
		if d.Severity == netlint.SevInfo {
			continue
		}
		fmt.Printf("; netlint: %s\n", d.String())
	}
	if netlint.HasErrors(res.Diags) {
		fail(fmt.Errorf("netlint: mapped netlist has structural errors"))
	}
	fmt.Printf("; netlint static: %s\n", res.Stats)
	fmt.Printf("; %s\n", techmap.Summarize(nl, m, lib))
	counts := nl.CellCounts()
	cellNames := make([]string, 0, len(counts))
	for cellName := range counts {
		cellNames = append(cellNames, cellName)
	}
	sort.Strings(cellNames)
	for _, cellName := range cellNames {
		fmt.Printf(";   %-8s x%d\n", cellName, counts[cellName])
	}
	if *verilog {
		fmt.Print(techmap.VerilogModules(nl, lib))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bmsynth:", err)
	os.Exit(1)
}
