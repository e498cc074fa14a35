// Command balsabm is the full back-end driver and experiment harness:
// it regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	balsabm table1            legality matrix (Table 1)
//	balsabm table2            four-phase expansions (Table 2)
//	balsabm table3 [design]   full flow: speed/area rows (Table 3)
//	balsabm fig2 [design]     control collapse before/after (Fig 2)
//	balsabm fig3              BM specs: sequencer, call, passivator (Fig 3)
//	balsabm fig4              activation channel removal example (Fig 4)
//	balsabm fig5              call distribution example (Fig 5)
//	balsabm verify            Section 4.3 conformance experiment
//	balsabm flow <design>     detailed per-controller flow report
//	balsabm lint [file...]    run the chlint analyzer on CH source files:
//	                          netlists or single bare expressions (no
//	                          files: lint every built-in design); CH001
//	                          reports every Table 1 violation. Exit
//	                          status 1 when errors are reported.
//	balsabm expand <file.ch>  print the four-phase expansion (Table 2) of
//	                          every component
//	balsabm pn <file.ch>      translate every component to a 1-safe Petri
//	                          net (the paper's future-work backend style)
//	                          and count its reachable markings, up to
//	                          1,000,000
//	balsabm bmlint [file...]  compile CH control netlists to Burst-Mode
//	                          specifications and run the bmlint analyzer
//	                          on each (files ending in .bms are linted
//	                          directly as specs); no files: audit every
//	                          built-in design, both arms. Exit status 1
//	                          on BM-errors. Here and in synth, netlint
//	                          and hazver, a file ending in .balsa is
//	                          Balsa source, compiled to its control
//	                          netlist first.
//	balsabm netlint [file...] synthesize CH control netlists (no
//	                          simulation) in the arm named by -mode
//	                          (default opt) and run the netlint
//	                          structural audit on every mapped controller
//	                          plus the merged circuit; no files: audit
//	                          every built-in design, both arms. Exit
//	                          status 1 on NL-errors.
//	balsabm hazver [file...]  synthesize CH control netlists through the
//	                          bmlint and netlint gates and run the
//	                          hazver static hazard verification: every
//	                          specified input burst of every shipped
//	                          synthesized controller is checked for clean
//	                          monotonic transitions by ternary (0/1/X)
//	                          analysis of the merged circuit; hand-library
//	                          circuits are reported skipped. Files use the arm named
//	                          by -mode (default opt); no files: verify
//	                          every built-in design, both arms. Exit
//	                          status 1 on HZ-errors.
//	balsabm audit [design...] run the flow's four checker tiers
//	                          (chlint, then per arm bmlint, netlint and
//	                          hazver) on built-in designs, checking the
//	                          netlists each arm ships; one summary line
//	                          per design (-json: the api.AuditResultJSON
//	                          wire form with per-checker counts). Exit
//	                          status 1 on error findings.
//	balsabm synth <file.ch>   synthesize a CH control netlist (no
//	                          simulation): clustering + speed-split
//	                          mapping by default (-mode unopt for the
//	                          baseline arm), emitting per-controller
//	                          summaries and structural Verilog (-json:
//	                          the api.SynthResultJSON wire form). With
//	                          -incremental, unchanged controllers are
//	                          spliced in from the controller-grain
//	                          cache instead of resynthesized; -base
//	                          names the design file this one is an edit
//	                          of (or, with -server, a prior job ID) and
//	                          -data-dir makes the cache durable.
//	balsabm artifacts <design|file.ch|file.balsa|file.bms> <dir>
//	                          write the Fig 1 file pipeline into dir
//	                          from what the flow ships, in process only.
//	                          A design or netlist runs through the lint
//	                          gate and both checked arms, as synth does;
//	                          a gate error fails the command and writes
//	                          nothing. Then it writes <name>.<arm>.ch
//	                          (the netlist each arm synthesized; a
//	                          .balsa file also writes <name>.breeze) and
//	                          per controller <ctl>.<arm>.bms (the bmlint
//	                          gate's spec), <ctl>.<arm>.sol (Minimalist
//	                          on that spec; none for a hand-library
//	                          circuit) and <ctl>.<arm>.v (the shipped
//	                          Verilog). A .bms spec runs through bmlint
//	                          and Minimalist, is mapped in both modes and
//	                          checked — hazver on speed-split, netlint on
//	                          both — and writes <name>.sol; exit status
//	                          1 on a checker error.
//	balsabm cache <stats|gc|verify> <data-dir> [max-bytes]
//	                          inspect or maintain a balsabmd data
//	                          directory offline: stats summarizes
//	                          artifacts/refs/journal/checkpoints, gc
//	                          evicts oldest blobs past max-bytes and
//	                          sweeps dangling refs, verify re-hashes
//	                          every artifact (exit 1 on corruption).
//	                          -json emits the wire structs.
//	balsabm designs           list benchmark designs
//
// Flags (before the subcommand):
//
//	-j N      bound the flow's worker pool at N parallel leaf tasks
//	          (controller syntheses, clustering runs, simulations);
//	          0, the default, uses all CPU cores. Results are
//	          identical at any setting.
//	-stats    after flow runs, print synthesis-cache hit/miss counts
//	          and per-stage wall-clock totals to stderr
//	-json     emit the machine-readable JSON wire form instead of text
//	          (table3, flow, synth, cache and the checker commands lint
//	          through audit); the encoding is byte-identical to the
//	          balsabmd server responses (shared internal/api encoder)
//	-server URL
//	          thin-client mode: run table3, flow, synth and the file
//	          forms of lint, bmlint, netlint and hazver on a balsabmd
//	          daemon at URL instead of in process. The built-in-design
//	          forms of the checkers, audit and artifacts run in process
//	          only and reject -server.
//	-mode opt|unopt
//	          the arm synth, netlint and hazver synthesize files in:
//	          opt (clustering + speed-split mapping, the default) or
//	          unopt (the baseline)
//	-incremental
//	          attach the controller-grain synthesis cache to flow runs
//	          (synth, table3, flow, audit, artifacts): controllers
//	          whose canonical subtree is already cached splice in
//	          instead of resynthesizing. Results are byte-identical
//	          either way; -stats shows the reused/resynthesized split.
//	-base PATH|JOBID
//	          the design this run is an edit of: a CH file locally, a
//	          prior job ID with -server. Locally the base is
//	          synthesized first (cheap when the cache is warm) so the
//	          edited design reuses every unchanged controller.
//	-data-dir DIR
//	          back the incremental cache with a balsabmd data
//	          directory, so reuse survives across runs and is shared
//	          with a daemon using the same directory
//	-cpuprofile FILE
//	          write a CPU profile of the run to FILE (go tool pprof)
//	-memprofile FILE
//	          write an allocation profile taken at exit to FILE
//
// Ctrl-C cancels an in-flight flow run cleanly: leaf tasks still
// waiting for a worker slot are abandoned and no pool goroutines are
// left behind.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"balsabm/internal/analysis"
	"balsabm/internal/api"
	"balsabm/internal/balsa"
	"balsabm/internal/bm"
	"balsabm/internal/bmlint"
	"balsabm/internal/cell"
	"balsabm/internal/ch"
	"balsabm/internal/chtobm"
	"balsabm/internal/core"
	"balsabm/internal/designs"
	"balsabm/internal/diag"
	"balsabm/internal/flow"
	"balsabm/internal/hazver"
	"balsabm/internal/minimalist"
	"balsabm/internal/netlint"
	"balsabm/internal/petri"
	"balsabm/internal/server"
	"balsabm/internal/store"
	"balsabm/internal/techmap"
)

var (
	workersFlag = flag.Int("j", 0, "parallel workers (0 = all CPU cores)")
	statsFlag   = flag.Bool("stats", false, "print cache and timing statistics after flow runs")
	jsonFlag    = flag.Bool("json", false, "emit the JSON wire form instead of text")
	serverFlag  = flag.String("server", "", "run table3, flow, synth and file checks on a balsabmd daemon at this URL")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile  = flag.String("memprofile", "", "write an allocation profile (taken at exit) to this file")

	incrFlag    = flag.Bool("incremental", false, "reuse cached controller syntheses with unchanged canonical subtrees")
	baseFlag    = flag.String("base", "", "base design for incremental synth: a CH file locally, a job ID with -server")
	dataDirFlag = flag.String("data-dir", "", "balsabmd data directory backing the incremental controller cache")
	modeFlag    = flag.String("mode", api.ModeOpt, "synth arm: opt (clustering + speed-split) or unopt (baseline)")
)

// ctlStore is the store opened for -data-dir, shared by every flow run
// of the invocation and closed at exit.
var ctlStore *store.Store

// controllerCache returns the controller-grain cache for -incremental
// runs: the -data-dir store when given, an in-process map otherwise,
// nil when -incremental is unset. A store that fails to open is fatal
// — silently running cold would defeat the flag.
func controllerCache() flow.ControllerCache {
	if !*incrFlag {
		return nil
	}
	if *dataDirFlag == "" {
		return memCtlCache
	}
	if ctlStore == nil {
		s, err := store.Open(*dataDirFlag, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "balsabm:", err)
			os.Exit(1)
		}
		ctlStore = s
	}
	return ctlStore
}

var memCtlCache = flow.NewMemoryControllerCache()

// closeCtlStore closes the -data-dir store if one was opened.
// Controller blobs are written atomically at Put time, so this is
// about releasing the journal handle, not flushing data.
func closeCtlStore() {
	if ctlStore != nil {
		ctlStore.Close()
		ctlStore = nil
	}
}

// startProfiles starts CPU profiling when requested and returns a
// cleanup that stops it and writes the exit heap profile. Profile
// errors are fatal: a silently missing profile defeats the point.
func startProfiles() func() {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "balsabm:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "balsabm:", err)
			os.Exit(1)
		}
	}
	return func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "balsabm:", err)
				os.Exit(1)
			}
			runtime.GC() // materialize final allocation stats
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "balsabm:", err)
				os.Exit(1)
			}
			f.Close()
		}
	}
}

// flowOptions builds the flow configuration from the command-line
// flags; the returned metrics are printed when -stats is set.
func flowOptions() (*flow.Options, *flow.Metrics) {
	met := &flow.Metrics{}
	return &flow.Options{
		Workers:     *workersFlag,
		Metrics:     met,
		Controllers: controllerCache(),
	}, met
}

func printStats(met *flow.Metrics) {
	if *statsFlag {
		fmt.Fprint(os.Stderr, met.String())
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	stopProfiles := startProfiles()
	defer stopProfiles()
	defer closeCtlStore()
	// Ctrl-C / SIGTERM cancel in-flight flow runs cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := flag.Arg(0)
	args := flag.Args()[1:]
	var err error
	switch cmd {
	case "table1":
		err = table1()
	case "table2":
		err = table2()
	case "table3":
		err = table3(ctx, args)
	case "fig2":
		err = fig2(args)
	case "fig3":
		err = fig3()
	case "fig4":
		err = fig4()
	case "fig5":
		err = fig5()
	case "verify":
		err = verify()
	case "lint":
		err = lintCmd(ctx, args)
	case "bmlint":
		err = bmlintCmd(ctx, args)
	case "netlint":
		err = netlintCmd(ctx, args)
	case "hazver":
		err = hazverCmd(ctx, args)
	case "audit":
		err = auditCmd(ctx, args)
	case "flow":
		err = flowReport(ctx, args)
	case "synth":
		err = synthCmd(ctx, args)
	case "artifacts":
		err = artifacts(ctx, args)
	case "expand":
		err = expandCmd(args)
	case "pn":
		err = pnCmd(args)
	case "cache":
		err = cacheCmd(args)
	case "designs":
		for _, d := range designs.All() {
			fmt.Println(d.Name)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err == errLintFindings {
		closeCtlStore()
		stopProfiles()
		stop()
		os.Exit(1) // diagnostics already printed, vet-style
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "balsabm:", err)
		closeCtlStore()
		stopProfiles()
		stop()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: balsabm [-j N] [-stats] [-json] [-server URL] [-incremental] [-base PATH|JOBID] [-data-dir DIR] [-cpuprofile FILE] [-memprofile FILE] <table1|table2|table3|fig2|fig3|fig4|fig5|verify|flow|synth|lint|expand|pn|bmlint|netlint|hazver|audit|artifacts|cache|designs> [args]`)
	flag.PrintDefaults()
}

// cacheCmd inspects or maintains a balsabmd data directory without the
// daemon: stats, gc (optionally bounded), and a full artifact
// re-hashing pass. Opening the store also replays + compacts the
// journal and sweeps stray temp files, so even `cache stats` leaves
// the directory tidier than it found it.
func cacheCmd(args []string) error {
	if len(args) < 2 || len(args) > 3 {
		return fmt.Errorf("usage: balsabm cache <stats|gc|verify> <data-dir> [max-bytes]")
	}
	op, dir := args[0], args[1]
	if dir == "" {
		return fmt.Errorf("cache: empty data-dir")
	}
	var maxBytes int64
	if len(args) == 3 {
		var err error
		maxBytes, err = strconv.ParseInt(args[2], 10, 64)
		if err != nil || maxBytes < 0 {
			return fmt.Errorf("cache: bad max-bytes %q", args[2])
		}
		if op != "gc" {
			return fmt.Errorf("cache: max-bytes only applies to gc")
		}
	}
	// Open without a bound so inspection never evicts; gc applies the
	// bound explicitly below.
	s, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	defer s.Close()
	switch op {
	case "stats":
		st, err := s.Stats()
		if err != nil {
			return err
		}
		if *jsonFlag {
			// The daemon's /metrics "store" object and this command
			// share api.FromStoreStats, so the two surfaces agree.
			return emitJSON(api.FromStoreStats(st))
		}
		fmt.Printf("artifacts:   %d (%d bytes)\n", st.Artifacts, st.ArtifactBytes)
		fmt.Printf("refs:        %d job results, %d controllers\n", st.Refs, st.ControllerRefs)
		fmt.Printf("jobs:        %d journaled, %d resumable\n", st.Jobs, st.Interrupted)
		fmt.Printf("checkpoints: %d stage payloads\n", st.Checkpoints)
		return nil
	case "gc":
		s.SetMaxBytes(maxBytes)
		res, err := s.GC()
		if err != nil {
			return err
		}
		if *jsonFlag {
			return emitJSON(res)
		}
		fmt.Printf("evicted %d blobs (%d bytes), dropped %d dangling refs; %d blobs (%d bytes) live\n",
			res.Evicted, res.FreedBytes, res.DanglingRefs, res.LiveBlobs, res.LiveBytes)
		return nil
	case "verify":
		res, err := s.Verify()
		if err != nil {
			return err
		}
		if *jsonFlag {
			if err := emitJSON(res); err != nil {
				return err
			}
		} else {
			fmt.Printf("checked %d artifacts, %d corrupt\n", res.Checked, len(res.Corrupt))
			for _, h := range res.Corrupt {
				fmt.Printf("  corrupt: %s\n", h)
			}
		}
		if len(res.Corrupt) > 0 {
			return fmt.Errorf("cache: %d corrupt artifacts", len(res.Corrupt))
		}
		return nil
	}
	return fmt.Errorf("cache: unknown operation %q", op)
}

// synthCmd synthesizes one CH control netlist without simulation,
// locally or (with -server) on a daemon. It shares server.RunSynth
// with the daemon's job executor, so both paths emit byte-identical
// api.SynthResultJSON. With -incremental the controller cache from
// controllerCache() is attached; -base names the design this one is
// an edit of — locally a CH file that is synthesized first to seed
// the cache (all reuse when a -data-dir store is warm), with -server
// a prior job ID forwarded as baseJobID.
func synthCmd(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: balsabm synth <file.ch|file.balsa>")
	}
	mode, err := armMode("synth")
	if err != nil {
		return err
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	if *serverFlag != "" {
		c := server.NewClient(*serverFlag)
		req := synthRequest(args[0], string(data), mode)
		req.BaseJobID = *baseFlag
		res, err := c.Run(ctx, req)
		if err != nil {
			return err
		}
		return emitSynth(res.Synth)
	}
	met := &flow.Metrics{}
	defer printStats(met)
	ctl := controllerCache()
	if *baseFlag != "" {
		if ctl == nil {
			return fmt.Errorf("synth: -base requires -incremental")
		}
		baseData, err := os.ReadFile(*baseFlag)
		if err != nil {
			return fmt.Errorf("synth: reading -base: %w", err)
		}
		if *statsFlag {
			if bn, berr := core.ParseNetlist(string(baseData)); berr == nil {
				if en, eerr := core.ParseNetlist(string(data)); eerr == nil {
					fmt.Fprintln(os.Stderr, flow.PlanIncremental(bn, en).String())
				}
			}
		}
		// Seed the cache from the base design; its result is
		// discarded and its metrics kept separate so -stats reports
		// the edited design's reuse split, not the seeding pass.
		if _, err := server.RunSynth(ctx, synthRequest(*baseFlag, string(baseData), mode), &flow.Metrics{}, ctl); err != nil {
			return fmt.Errorf("synth: base %s: %w", *baseFlag, err)
		}
	}
	res, err := server.RunSynth(ctx, synthRequest(args[0], string(data), mode), met, ctl)
	if err != nil {
		return err
	}
	return emitSynth(res.Synth)
}

// emitSynth prints a synth result: the wire form under -json, a
// per-controller summary table otherwise.
func emitSynth(s *api.SynthResultJSON) error {
	if *jsonFlag {
		return emitJSON(s)
	}
	fmt.Printf("mode %s: %d controllers\n", s.Mode, len(s.Controllers))
	for _, c := range s.Controllers {
		solver := "greedy"
		if c.Controller.Exact {
			solver = "exact"
		}
		fmt.Printf("  %-20s %3d states  %2d bits  %3d products  %3d cells  area %6.1f  critical %.2f ns  (%s)\n",
			c.Controller.Name, c.Controller.States, c.Controller.StateBits,
			c.Controller.Products, c.Controller.Cells, c.Controller.Area,
			c.Controller.Critical, solver)
	}
	if s.Netlint != nil {
		fmt.Printf("netlint %s: %d errors, %d warnings, %d infos\n",
			s.Netlint.Circuit, s.Netlint.Errors, s.Netlint.Warnings, s.Netlint.Infos)
	}
	return nil
}

// errLintFindings reports that a checker printed error diagnostics;
// main exits 1 without the generic error banner.
var errLintFindings = errors.New("lint found errors")

// checkResult is one checker's answer for one input as the check
// commands print it: the api result of a tier, or an auditReport.
type checkResult interface {
	// Failed reports an error-severity finding.
	Failed() bool
	// Text renders the result for the terminal, one diagnostic per line.
	Text() string
}

// checkCmd is the one path behind the lint, bmlint, netlint and hazver
// subcommands. Each file argument becomes a request (see request) for
// the tier's server.Checker, answered in process by the function behind
// the daemon endpoint or, with -server, by the daemon — so -json output
// is byte-identical either way. With no arguments builtin checks the
// built-in designs, in process only: -server is then a usage error.
func checkCmd[Req any, Res checkResult](ctx context.Context, c server.Checker[Req, Res], args []string, request func(file, src string) Req, builtin func() ([]checkResult, error)) error {
	if len(args) == 0 {
		if *serverFlag != "" {
			return fmt.Errorf("usage: balsabm -server URL %s <file>... (the built-in designs are checked in process only)", c.Name)
		}
		results, err := builtin()
		if err != nil {
			return err
		}
		return emitChecks(results)
	}
	var results []checkResult
	for _, file := range args {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		req := request(file, string(data))
		var res Res
		if *serverFlag != "" {
			res, err = c.Call(ctx, server.NewClient(*serverFlag), req)
		} else {
			res, err = c.Run(ctx, req)
		}
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	return emitChecks(results)
}

// emitChecks prints checker results — -json: the wire form, one object
// for a single result and a list otherwise; text: each result's lines —
// and returns errLintFindings when any result failed.
func emitChecks(results []checkResult) error {
	failed := false
	for _, res := range results {
		failed = failed || res.Failed()
	}
	if *jsonFlag {
		var v any = results
		if len(results) == 1 {
			v = results[0]
		}
		if err := emitJSON(v); err != nil {
			return err
		}
	} else {
		for _, res := range results {
			fmt.Print(res.Text())
		}
	}
	if failed {
		return errLintFindings
	}
	return nil
}

// designArms checks both arms of every built-in design, unopt and then
// opt, through check: the no-argument form of bmlint, netlint and
// hazver. It owns the flow options, so -stats covers every arm.
func designArms(check func(d *designs.Design, arm string, opt *flow.Options) (checkResult, error)) ([]checkResult, error) {
	opt, met := flowOptions()
	defer printStats(met)
	var results []checkResult
	for _, d := range designs.All() {
		for _, arm := range []string{api.ModeUnopt, api.ModeOpt} {
			res, err := check(d, arm, opt)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
		}
	}
	return results, nil
}

// armMode validates -mode for the commands that synthesize one arm.
func armMode(cmd string) (string, error) {
	if m := *modeFlag; m != api.ModeOpt && m != api.ModeUnopt {
		return "", fmt.Errorf("%s: unknown mode %q (want opt or unopt)", cmd, m)
	}
	return *modeFlag, nil
}

// fileDesign names a design after its source file: "dir/pair.ch" is
// "pair".
func fileDesign(file string) string {
	return strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
}

// sourceFormat is the request format a file's extension names: a .bms
// spec, Balsa source, or by default a CH netlist.
func sourceFormat(file string) string {
	switch filepath.Ext(file) {
	case ".bms":
		return api.FormatBMS
	case ".balsa":
		return api.FormatBalsa
	}
	return ""
}

// synthRequest is the synth job for one source file in the -mode arm.
func synthRequest(file, src, mode string) api.JobRequest {
	return api.JobRequest{
		Kind: api.KindSynth, Source: src, Format: sourceFormat(file), Name: fileDesign(file),
		Mode: mode, Config: api.FlowConfig{Workers: *workersFlag},
	}
}

// lintCmd runs the chlint analyzer on CH source files, or on the
// control netlists of every built-in design.
func lintCmd(ctx context.Context, args []string) error {
	return checkCmd(ctx, server.Lint, args,
		func(file, src string) api.LintRequest { return api.LintRequest{Source: src, File: file} },
		func() ([]checkResult, error) {
			var results []checkResult
			for _, d := range designs.All() {
				results = append(results, api.LintResult(d.Name, analysis.Analyze(d.Control())))
			}
			return results, nil
		})
}

// bmlintCmd compiles CH control netlists to Burst-Mode specifications
// and runs the bmlint analyzer on each component spec; files ending in
// .bms are linted directly as specs. With no arguments it audits every
// built-in design, both arms.
func bmlintCmd(ctx context.Context, args []string) error {
	return checkCmd(ctx, server.Bmlint, args,
		func(file, src string) api.BmlintRequest {
			return api.BmlintRequest{Source: src, Format: sourceFormat(file), Name: fileDesign(file)}
		},
		func() ([]checkResult, error) {
			return designArms(func(d *designs.Design, arm string, opt *flow.Options) (checkResult, error) {
				specs, err := flow.BmlintNetlist(ctx, arm, d.Control(), opt)
				if err != nil {
					return nil, err
				}
				res := api.BmlintResult(specs)
				res.Design, res.Mode = d.Name, arm
				return res, nil
			})
		})
}

// netlintCmd runs the checked arm -mode names (no simulation) on CH
// control netlists and reports its netlint tier: the structural audit
// of every mapped controller plus the merged circuit. With no arguments
// it audits every built-in design, both arms.
func netlintCmd(ctx context.Context, args []string) error {
	mode, err := armMode("netlint")
	if err != nil {
		return err
	}
	return checkCmd(ctx, server.Netlint, args,
		func(file, src string) api.NetlintRequest {
			return api.NetlintRequest{Source: src, Format: sourceFormat(file), Name: fileDesign(file), Mode: mode, Config: api.FlowConfig{Workers: *workersFlag}}
		},
		func() ([]checkResult, error) {
			return designArms(func(d *designs.Design, arm string, opt *flow.Options) (checkResult, error) {
				c, err := flow.SynthesizeCheckedCtx(ctx, d.Name, arm, d.Control(), opt)
				return server.NetlintArm(d.Name, arm, c, err)
			})
		})
}

// hazverCmd runs the checked arm -mode names (no simulation) on CH
// control netlists and reports its hazver tier: every specified input
// burst of every shipped synthesized controller statically verified by
// ternary analysis of the merged circuit. An arm that fails the bmlint
// or netlint gate first fails the command with that gate's error. With
// no arguments it verifies every built-in design, both arms.
func hazverCmd(ctx context.Context, args []string) error {
	mode, err := armMode("hazver")
	if err != nil {
		return err
	}
	return checkCmd(ctx, server.Hazver, args,
		func(file, src string) api.HazverRequest {
			return api.HazverRequest{Source: src, Format: sourceFormat(file), Name: fileDesign(file), Mode: mode, Config: api.FlowConfig{Workers: *workersFlag}}
		},
		func() ([]checkResult, error) {
			return designArms(func(d *designs.Design, arm string, opt *flow.Options) (checkResult, error) {
				c, err := flow.SynthesizeCheckedCtx(ctx, d.Name, arm, d.Control(), opt)
				return server.HazverArm(arm, c, err)
			})
		})
}

// auditCmd runs the static audit on built-in designs (all of them, or
// the named ones), in process only: chlint on the control netlist, then
// each arm through the flow's own gated synthesis — bmlint on every
// compiled spec, netlint on every mapped controller and the merged
// circuit, and hazver on every specified burst of the shipped netlists.
func auditCmd(ctx context.Context, args []string) error {
	if *serverFlag != "" {
		return fmt.Errorf("usage: balsabm audit [design...] (audits run in process only; drop -server)")
	}
	names := args
	if len(names) == 0 {
		for _, d := range designs.All() {
			names = append(names, d.Name)
		}
	}
	opt, met := flowOptions()
	defer printStats(met)
	var results []checkResult
	for _, name := range names {
		d, err := designs.ByName(name)
		if err != nil {
			return err
		}
		a, err := flow.AuditDesignCtx(ctx, d, opt)
		if err != nil {
			return err
		}
		results = append(results, auditReport{a})
	}
	return emitChecks(results)
}

// auditReport puts a design audit on the check emit path: its text is
// the summary line, followed by the error and warning findings of a
// failing audit; its JSON is the api.AuditResultJSON wire form.
type auditReport struct{ *flow.AuditResult }

func (a auditReport) Failed() bool { return !a.OK() }

func (a auditReport) Text() string {
	if a.OK() {
		return a.Summary() + "\n"
	}
	return a.Summary() + "\n" + a.Details()
}

func (a auditReport) MarshalJSON() ([]byte, error) {
	return json.Marshal(api.FromAuditResult(a.AuditResult))
}

func table1() error {
	ops := []ch.OpKind{ch.EncEarly, ch.EncLate, ch.EncMiddle, ch.Seq, ch.SeqOv, ch.Mutex}
	combos := [][2]ch.Activity{{ch.Active, ch.Active}, {ch.Active, ch.Passive},
		{ch.Passive, ch.Active}, {ch.Passive, ch.Passive}}
	fmt.Println("Table 1: Legal Combinations of Operators and Arguments")
	fmt.Printf("%-12s %8s %8s %8s %8s\n", "Operator", "a/a", "a/p", "p/a", "p/p")
	for _, op := range ops {
		row := []string{}
		for _, c := range combos {
			if ch.Legal(op, c[0], c[1]) {
				row = append(row, "Yes")
			} else {
				row = append(row, "No")
			}
		}
		fmt.Printf("%-12s %8s %8s %8s %8s\n", op, row[0], row[1], row[2], row[3])
	}
	return nil
}

func table2() error {
	fmt.Println("Table 2: The Four-Phase Expansion of CH Operators")
	ops := []string{"enc-early", "enc-late", "enc-middle", "seq", "seq-ov", "mutex"}
	combos := [][2]string{{"active", "active"}, {"active", "passive"},
		{"passive", "active"}, {"passive", "passive"}}
	for _, op := range ops {
		for _, c := range combos {
			src := fmt.Sprintf("(%s (p-to-p %s a) (p-to-p %s b))", op, c[0], c[1])
			e, err := ch.Parse(src)
			if err != nil {
				return err
			}
			x, err := ch.Expand(e)
			if err != nil {
				fmt.Printf("%-12s %s/%s:  -\n", op, c[0][:1], c[1][:1])
				continue
			}
			fmt.Printf("%-12s %s/%s:  %s\n", op, c[0][:1], c[1][:1], x)
		}
	}
	return nil
}

// emitJSON prints a wire value through the shared api encoder — the
// same bytes a balsabmd daemon would serve for the same result.
func emitJSON(v any) error {
	b, err := api.Encode(v)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(b)
	return err
}

// remoteRows runs table3 work on the daemon named by -server.
func remoteRows(ctx context.Context, args []string) ([]*api.DesignResultJSON, error) {
	c := server.NewClient(*serverFlag)
	cfg := api.FlowConfig{Workers: *workersFlag}
	if len(args) == 1 {
		res, err := c.Run(ctx, api.JobRequest{Kind: api.KindDesign, Design: args[0], Config: cfg})
		if err != nil {
			return nil, err
		}
		return []*api.DesignResultJSON{res.Design}, nil
	}
	res, err := c.Run(ctx, api.JobRequest{Kind: api.KindTable3, Config: cfg})
	if err != nil {
		return nil, err
	}
	return res.Table3, nil
}

func table3(ctx context.Context, args []string) error {
	if *serverFlag != "" {
		rows, err := remoteRows(ctx, args)
		if err != nil {
			return err
		}
		if *jsonFlag {
			return emitJSON(rows)
		}
		results := make([]*flow.DesignResult, len(rows))
		for i, row := range rows {
			results[i] = row.ToFlow()
		}
		fmt.Print(flow.Table3(results))
		return nil
	}
	opt, met := flowOptions()
	defer printStats(met)
	if len(args) == 1 {
		d, err := designs.ByName(args[0])
		if err != nil {
			return err
		}
		r, err := flow.RunDesignCtx(ctx, d, opt)
		if err != nil {
			return err
		}
		if *jsonFlag {
			return emitJSON(api.FromDesignResults([]*flow.DesignResult{r}))
		}
		fmt.Print(flow.Table3([]*flow.DesignResult{r}))
		return nil
	}
	results, err := flow.RunAllCtx(ctx, opt)
	if err != nil {
		return err
	}
	if *jsonFlag {
		return emitJSON(api.FromDesignResults(results))
	}
	fmt.Print(flow.Table3(results))
	fmt.Println()
	fmt.Println("Paper's Table 3 for comparison (AMS 0.35um, post-layout):")
	fmt.Println("  Systolic counter     51.29 -> 40.43 ns  (21.16%)   area +27.09%")
	fmt.Println("  Wagging register     49.82 -> 42.43 ns  (14.83%)   area +23.92%")
	fmt.Println("  Stack               121.58 -> 107.70 ns (11.41%)   area +18.66%")
	fmt.Println("  Microprocessor core  66.48 -> 60.65 ns  ( 8.76%)   area +24.17%")
	return nil
}

func fig2(args []string) error {
	names := []string{"systolic-counter", "wagging-register", "stack", "ssem"}
	if len(args) == 1 {
		names = args
	}
	fmt.Println("Fig 2: control optimization — components before/after clustering")
	for _, name := range names {
		d, err := designs.ByName(name)
		if err != nil {
			return err
		}
		before, after, rep, err := flow.Fig2Summary(d)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s before: %-48s after: %s\n", name, before, after)
		for _, m := range rep.Merges {
			fmt.Printf("    merged %s into %s (channel %s eliminated)\n", m.Activated, m.Activator, m.Channel)
		}
		if len(rep.CallsRestored) > 0 {
			fmt.Printf("    calls restored: %s\n", strings.Join(rep.CallsRestored, ", "))
		}
	}
	return nil
}

func fig3() error {
	examples := []struct{ name, src string }{
		{"sequencer", `(rep (enc-early (p-to-p passive P)
		    (seq (p-to-p active A1) (p-to-p active A2))))`},
		{"call", `(rep (mutex (enc-early (p-to-p passive A1) (p-to-p active B))
		    (enc-early (p-to-p passive A2) (p-to-p active B))))`},
		{"passivator", `(rep (enc-middle (p-to-p passive A) (p-to-p passive B)))`},
	}
	fmt.Println("Fig 3: Burst-Mode specifications of three handshake components")
	for _, e := range examples {
		body, err := ch.Parse(e.src)
		if err != nil {
			return err
		}
		sp, err := chtobm.Compile(&ch.Program{Name: e.name, Body: body})
		if err != nil {
			return err
		}
		fmt.Println(sp)
	}
	return nil
}

func fig4() error {
	dwSrc := `(rep (enc-early (p-to-p passive a1)
	    (mutex (enc-early (p-to-p passive i1) (p-to-p active o1))
	           (enc-early (p-to-p passive i2) (p-to-p active o2)))))`
	seqSrc := `(rep (enc-early (p-to-p passive o2)
	    (seq (p-to-p active c1) (p-to-p active c2))))`
	n := &core.Netlist{}
	for _, c := range []struct{ name, src string }{{"decision-wait", dwSrc}, {"sequencer", seqSrc}} {
		body, err := ch.Parse(c.src)
		if err != nil {
			return err
		}
		n.Components = append(n.Components, &ch.Program{Name: c.name, Body: body})
	}
	fmt.Println("Fig 4: activation channel removal (decision-wait + sequencer over channel o2)")
	out, rep, err := core.T1Clustering(n)
	if err != nil {
		return err
	}
	for _, m := range rep.Merges {
		fmt.Printf("  merged %s into %s, channel %s eliminated\n", m.Activated, m.Activator, m.Channel)
	}
	fmt.Println("merged CH program:")
	fmt.Println(ch.FormatProgram(out.Components[0]))
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		return err
	}
	fmt.Println("merged Burst-Mode specification:")
	fmt.Println(sp)
	if err := core.VerifyActivationChannelRemoval("o2", n.Components[0], n.Components[1]); err != nil {
		return err
	}
	fmt.Println("trace-theory verification: composed||hidden == merged  OK")
	return nil
}

func fig5() error {
	seqSrc := `(rep (enc-early (p-to-p passive a)
	    (seq (p-to-p active b1) (p-to-p active b2))))`
	callSrc := `(rep (mutex (enc-early (p-to-p passive b1) (p-to-p active c))
	    (enc-early (p-to-p passive b2) (p-to-p active c))))`
	n := &core.Netlist{}
	for _, c := range []struct{ name, src string }{{"sequencer", seqSrc}, {"call", callSrc}} {
		body, err := ch.Parse(c.src)
		if err != nil {
			return err
		}
		n.Components = append(n.Components, &ch.Program{Name: c.name, Body: body})
	}
	fmt.Println("Fig 5: call distribution (the systolic counter fragment)")
	out, rep, err := core.T2Clustering(n)
	if err != nil {
		return err
	}
	fmt.Printf("  calls split: %v, restored: %v\n", rep.CallsSplit, rep.CallsRestored)
	fmt.Println("resulting CH program:")
	fmt.Println(ch.FormatProgram(out.Components[0]))
	sp, err := chtobm.Compile(out.Components[0])
	if err != nil {
		return err
	}
	fmt.Println("resulting Burst-Mode specification:")
	fmt.Println(sp)
	return nil
}

func verify() error {
	fmt.Println("Section 4.3: trace-theory verification of Activation Channel Removal")
	fmt.Println("(composed behavior with the activation channel hidden vs. clustered behavior)")
	results := core.VerifyAllPairsOrdered()
	failures := 0
	for _, r := range results {
		status := "conformation equivalent"
		if r.Err != nil {
			status = r.Err.Error()
			failures++
		}
		fmt.Printf("  activating=%-10s activated=%-10s  %s\n", r.Pair.Activating, r.Pair.Activated, status)
	}
	if failures > 0 {
		return fmt.Errorf("%d pairs failed", failures)
	}
	fmt.Printf("all %d operator combinations verified\n", len(results))
	return nil
}

func flowReport(ctx context.Context, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: balsabm flow <design>")
	}
	if *serverFlag != "" {
		c := server.NewClient(*serverFlag)
		res, err := c.Run(ctx, api.JobRequest{
			Kind: api.KindDesign, Design: args[0],
			Config: api.FlowConfig{Workers: *workersFlag},
		})
		if err != nil {
			return err
		}
		if *jsonFlag {
			return emitJSON(res.Design)
		}
		printFlowReport(res.Design.ToFlow())
		return nil
	}
	d, err := designs.ByName(args[0])
	if err != nil {
		return err
	}
	opt, met := flowOptions()
	defer printStats(met)
	r, err := flow.RunDesignCtx(ctx, d, opt)
	if err != nil {
		return err
	}
	if *jsonFlag {
		return emitJSON(api.FromDesignResult(r))
	}
	printFlowReport(r)
	return nil
}

func printFlowReport(r *flow.DesignResult) {
	fmt.Printf("design %s — benchmark: %s\n", r.Design, r.Bench)
	for _, arm := range []struct {
		name string
		a    flow.ArmResult
	}{{"unoptimized", r.Unopt}, {"optimized", r.Opt}} {
		fmt.Printf("%s arm: %d controllers, control %.0f um2, datapath %.0f um2, bench %.2f ns (%d events)\n",
			arm.name, len(arm.a.Controllers), arm.a.ControlArea, arm.a.DatapathArea,
			arm.a.BenchTime, arm.a.Events)
		for _, c := range arm.a.Controllers {
			fmt.Printf("  %-24s %3d states %2d bits %3d products %4d cells %7.0f um2 %5.2f ns\n",
				c.Name, c.States, c.StateBits, c.Products, c.Cells, c.Area, c.Critical)
		}
	}
	fmt.Printf("speed improvement: %.2f%%   area overhead: %.2f%%\n",
		r.SpeedImprovement(), r.AreaOverhead())
}

// artifact is one file artifacts writes: its name in the output
// directory and its content.
type artifact struct{ name, content string }

// artifacts writes the paper's Fig 1 files for one input (see the
// usage comment) into dir. Every file is computed and named before the
// first is written, so an input the flow would not ship, or whose
// component names would escape dir, leaves no files.
func artifacts(ctx context.Context, args []string) error {
	const usage = "usage: balsabm artifacts <design|file.ch|file.balsa|file.bms> <dir>"
	if *serverFlag != "" {
		return errors.New(usage + " (artifacts are written in process only; drop -server)")
	}
	if len(args) != 2 {
		return errors.New(usage)
	}
	var files []artifact
	var err error
	if filepath.Ext(args[0]) == ".bms" {
		files, err = specArtifacts(args[0])
	} else {
		files, err = netlistArtifacts(ctx, args[0])
	}
	if err != nil {
		return err
	}
	for _, f := range files {
		if filepath.Base(f.name) != f.name {
			return fmt.Errorf("artifacts: %q is not a file name", f.name)
		}
	}
	if err := os.MkdirAll(args[1], 0o755); err != nil {
		return err
	}
	for _, f := range files {
		path := filepath.Join(args[1], f.name)
		fmt.Println("writing", path)
		if err := os.WriteFile(path, []byte(f.content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// netlistArtifacts runs a built-in design, a .ch netlist or a .balsa
// source through the lint gate and both checked arms, as synth does,
// and returns the files of what each arm ships: its netlist, and per
// controller the gate's spec, Minimalist's solution of that spec
// unless the controller is a hand-library circuit, and the shipped
// Verilog. A .balsa source adds its compiled handshake netlist.
func netlistArtifacts(ctx context.Context, in string) ([]artifact, error) {
	var files []artifact
	name := fileDesign(in)
	var n *core.Netlist
	switch filepath.Ext(in) {
	case ".ch":
		var err error
		if n, err = readCH(in); err != nil {
			return nil, err
		}
	case ".balsa":
		data, err := os.ReadFile(in)
		if err != nil {
			return nil, err
		}
		hcn, err := balsa.CompileSource(string(data), name)
		if err != nil {
			return nil, err
		}
		files = append(files, artifact{name + ".breeze", hcn.Format()})
		if n, err = hcn.Control(); err != nil {
			return nil, err
		}
	default:
		d, err := designs.ByName(in)
		if err != nil {
			return nil, err
		}
		n = d.Control()
	}
	opt, met := flowOptions()
	defer printStats(met)
	if err := flow.LintNetlist(n, name, met); err != nil {
		return nil, err
	}
	lib := cell.AMS035()
	for _, arm := range []string{api.ModeUnopt, api.ModeOpt} {
		c, err := flow.SynthesizeCheckedCtx(ctx, name, arm, n, opt)
		if err != nil {
			return nil, err
		}
		files = append(files, artifact{name + "." + arm + ".ch", c.Netlist.Format()})
		for i, comp := range c.Netlist.Components {
			base := comp.Name + "." + arm
			files = append(files, artifact{base + ".bms", c.Specs[i].String()})
			if !c.HandLibrary[i] {
				ctrl, err := minimalist.Synthesize(c.Specs[i])
				if err != nil {
					return nil, err
				}
				files = append(files, artifact{base + ".sol", ctrl.Sol()})
			}
			files = append(files, artifact{base + ".v", techmap.VerilogModules(c.Mapped[i], lib)})
		}
	}
	return files, nil
}

// specArtifacts runs a .bms spec through the bmlint gate and
// Minimalist, maps the controller in both arms' modes and checks each
// mapping — hazver on speed-split, netlint on both — printing each
// mapping's summary and each checker's verdict. A checker error fails
// it; otherwise it returns the spec's .sol. It writes no Verilog: the
// .v files artifacts writes are the flow's, and a spec alone is no
// flow arm.
func specArtifacts(in string) ([]artifact, error) {
	data, err := os.ReadFile(in)
	if err != nil {
		return nil, err
	}
	sp, err := bm.Parse(string(data))
	if err != nil {
		return nil, err
	}
	if !verdict("bmlint", bmlint.Audit(sp).Diags, nil) {
		return nil, errLintFindings
	}
	ctrl, err := minimalist.Synthesize(sp)
	if err != nil {
		return nil, err
	}
	lib := cell.AMS035()
	for _, mode := range []techmap.Mode{techmap.AreaShared, techmap.SpeedSplit} {
		nl, err := techmap.MapController(ctrl, mode, lib)
		if err != nil {
			return nil, err
		}
		fmt.Printf("; %s\n", techmap.Summarize(nl, mode, lib))
		if mode == techmap.SpeedSplit {
			res := hazver.Audit(nl.Name, []hazver.Unit{hazver.ControllerUnit(nl.Name, ctrl, nl)}, lib, hazver.Options{})
			if !verdict("hazver", res.Diags, res.Stats) {
				return nil, errLintFindings
			}
		}
		if res := netlint.Audit(nl, lib); !verdict("netlint", res.Diags, res.Stats) {
			return nil, errLintFindings
		}
	}
	return []artifact{{fileDesign(in) + ".sol", ctrl.Sol()}}, nil
}

// verdict prints a checker's findings as comment lines — its warnings
// and errors, then, when it found no error, its static report if it
// has one — and reports whether it passed.
func verdict[L diag.Loc](tier string, ds []diag.Diag[L], stats fmt.Stringer) bool {
	for _, d := range ds {
		if d.Severity != diag.SevInfo {
			fmt.Printf("; %s: %s\n", tier, d)
		}
	}
	if diag.HasErrors(ds) {
		return false
	}
	if stats != nil {
		fmt.Printf("; %s static: %s\n", tier, stats)
	}
	return true
}

// readCH reads a CH file: a netlist or a single bare expression.
func readCH(file string) (*core.Netlist, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return core.ParseNetlist(string(data))
}

// expandCmd prints the four-phase expansion of every component of a CH
// file.
func expandCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: balsabm expand <file.ch>")
	}
	n, err := readCH(args[0])
	if err != nil {
		return err
	}
	for _, p := range n.Components {
		x, err := ch.Expand(p.Body)
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		fmt.Printf("; four-phase expansion of %s\n%s\n", p.Name, x)
	}
	return nil
}

// pnCmd translates every component of a CH file to a 1-safe Petri net
// and prints its transitions and the size of its reachability graph,
// explored up to petri's default bound of 1,000,000 markings.
func pnCmd(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: balsabm pn <file.ch>")
	}
	n, err := readCH(args[0])
	if err != nil {
		return err
	}
	for _, p := range n.Components {
		net, err := petri.FromProgram(p)
		if err != nil {
			return err
		}
		fmt.Printf("; 1-safe Petri net for %s: %d places, %d transitions\n", p.Name, net.Places, len(net.Transitions))
		for i, tr := range net.Transitions {
			label := tr.Label
			if label == "" {
				label = "tau"
			}
			fmt.Printf("t%-3d %-10s pre%v post%v\n", i, label, tr.Pre, tr.Post)
		}
		g, err := net.Reachability(0)
		if err != nil {
			return err
		}
		fmt.Printf("; reachability graph: %d markings, %d edges\n", g.States, len(g.Edges))
	}
	return nil
}
