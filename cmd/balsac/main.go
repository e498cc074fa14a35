// Command balsac compiles a Balsa-subset source file into a handshake
// component netlist (the balsa-c step of the paper's Fig 1), printed in
// a breeze-like text format. With -control, it instead prints the CH
// programs of the control components (the Balsa-to-CH step).
//
// Usage:
//
//	balsac [-control] file.balsa
//	balsac -builtin counter8|stack|wagging|ssem [-control]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"balsabm/internal/balsa"
	"balsabm/internal/designs"
)

func main() {
	control := flag.Bool("control", false, "print the control components as CH programs")
	builtin := flag.String("builtin", "", "compile an embedded benchmark source instead of a file")
	flag.Parse()

	var (
		src  string
		name string
		err  error
	)
	switch {
	case *builtin != "":
		src, err = designs.BalsaSource(*builtin)
		name = *builtin
	case flag.NArg() == 1:
		var data []byte
		data, err = os.ReadFile(flag.Arg(0))
		src = string(data)
		name = strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".balsa")
	default:
		fmt.Fprintln(os.Stderr, "usage: balsac [-control] file.balsa | balsac -builtin <design>")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "balsac:", err)
		os.Exit(1)
	}

	n, err := balsa.CompileSource(src, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "balsac:", err)
		os.Exit(1)
	}
	if *control {
		ctl, err := n.Control()
		if err != nil {
			fmt.Fprintln(os.Stderr, "balsac:", err)
			os.Exit(1)
		}
		fmt.Print(ctl.Format())
		return
	}
	fmt.Print(n.Format())
	s := n.Stats()
	fmt.Fprintf(os.Stderr, "balsac: %d control + %d datapath components\n", s.Control, s.Datapath)
}
