package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"balsabm/internal/server"
)

var update = flag.Bool("update", false, "rewrite the goldens in testdata/ from the current binary")

// balsabm is the command under test, built once by TestMain.
var balsabm string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "balsabm-cli")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	balsabm = filepath.Join(dir, "balsabm")
	if out, err := exec.Command("go", "build", "-o", balsabm, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building balsabm: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the command from the repository root, so file arguments
// read as they do in the README, and returns its stdout, stderr and
// exit status.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(balsabm, args...)
	cmd.Dir = filepath.Join("..", "..")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("balsabm %s: %v", strings.Join(args, " "), err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errOut.String(), code
}

// TestGoldens pins the stdout and exit status of the checker commands
// (the built-in designs as text and -json, and one file per tier) and
// of expand and pn on a bare expression and on a two-program netlist.
func TestGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
		code   int
	}{
		{"lint", []string{"lint"}, 0},
		{"lint-json", []string{"-json", "lint"}, 0},
		{"bmlint", []string{"bmlint"}, 0},
		{"bmlint-json", []string{"-json", "bmlint"}, 0},
		{"netlint", []string{"netlint"}, 0},
		{"netlint-json", []string{"-json", "netlint"}, 0},
		{"hazver", []string{"hazver"}, 0},
		{"hazver-json", []string{"-json", "hazver"}, 0},
		{"audit", []string{"audit"}, 0},
		{"audit-json", []string{"-json", "audit"}, 0},
		{"lint-table1", []string{"lint", "examples/lint/table1.ch"}, 1},
		{"lint-table1-json", []string{"-json", "lint", "examples/lint/table1.ch"}, 1},
		{"bmlint-bms", []string{"bmlint", "cmd/balsabm/testdata/pulse.bms"}, 0},
		{"bmlint-bms-json", []string{"-json", "bmlint", "cmd/balsabm/testdata/pulse.bms"}, 0},
		{"netlint-file", []string{"netlint", "cmd/balsabm/testdata/pair.ch"}, 0},
		{"netlint-file-json", []string{"-json", "netlint", "cmd/balsabm/testdata/pair.ch"}, 0},
		{"hazver-file", []string{"hazver", "cmd/balsabm/testdata/pair.ch"}, 0},
		{"hazver-file-json", []string{"-json", "hazver", "cmd/balsabm/testdata/pair.ch"}, 0},
		{"expand-clean", []string{"expand", "examples/lint/clean.ch"}, 0},
		{"expand-pair", []string{"expand", "cmd/balsabm/testdata/pair.ch"}, 0},
		{"pn-clean", []string{"pn", "examples/lint/clean.ch"}, 0},
		{"pn-pair", []string{"pn", "cmd/balsabm/testdata/pair.ch"}, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.golden, func(t *testing.T) {
			t.Parallel()
			out, stderr, code := run(t, c.args...)
			if code != c.code {
				t.Errorf("exit status %d, want %d; stderr:\n%s", code, c.code, stderr)
			}
			path := filepath.Join("testdata", c.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("stdout differs from %s:\n--- got ---\n%s--- want ---\n%s", path, out, want)
			}
		})
	}
}

// TestRemoteMatchesLocal: the file form of every checker, and synth of
// a Balsa source, prints the same bytes and exits the same way against
// a daemon as in process.
func TestRemoteMatchesLocal(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	for _, args := range [][]string{
		{"lint", "examples/lint/table1.ch"},
		{"bmlint", "cmd/balsabm/testdata/pulse.bms", "cmd/balsabm/testdata/pair.ch"},
		{"netlint", "cmd/balsabm/testdata/pair.ch"},
		{"-mode", "unopt", "hazver", "cmd/balsabm/testdata/pair.ch"},
		{"synth", "internal/designs/balsa/counter8.balsa"},
	} {
		for _, form := range [][]string{nil, {"-json"}} {
			local := append(append([]string{}, form...), args...)
			remote := append([]string{"-server", hs.URL}, local...)
			lout, _, lcode := run(t, local...)
			rout, rerr, rcode := run(t, remote...)
			if rout != lout || rcode != lcode {
				t.Errorf("balsabm %s: remote (exit %d) differs from local (exit %d):\n--- remote ---\n%s%s--- local ---\n%s",
					strings.Join(local, " "), rcode, lcode, rout, rerr, lout)
			}
		}
	}
}

// TestServerFlagNeedsFiles: -server runs file checks on a daemon; the
// built-in-design forms, audit and artifacts refuse it with a usage
// error instead of silently running locally.
func TestServerFlagNeedsFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{{"lint"}, {"bmlint"}, {"netlint"}, {"hazver"}, {"audit"}, {"audit", "stack"}, {"artifacts", "stack", dir}} {
		out, stderr, code := run(t, append([]string{"-server", "http://127.0.0.1:1"}, args...)...)
		if code != 1 || out != "" || !strings.Contains(stderr, "usage:") {
			t.Errorf("balsabm -server URL %s: exit %d, stdout %q, stderr %q; want exit 1 with a usage error",
				strings.Join(args, " "), code, out, stderr)
		}
	}
	if files := readDir(t, dir); files != nil {
		t.Errorf("artifacts under -server wrote %d files", len(files))
	}
}

// TestNetlintMode: netlint synthesizes the arm -mode names, as hazver
// does, and rejects an unknown one.
func TestNetlintMode(t *testing.T) {
	out, stderr, code := run(t, "-mode", "unopt", "-json", "netlint", "cmd/balsabm/testdata/pair.ch")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{`"mode": "unopt"`, `"circuit": "pair.unopt"`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %s:\n%s", want, out)
		}
	}
	_, stderr, code = run(t, "-mode", "fastest", "netlint", "cmd/balsabm/testdata/pair.ch")
	if code != 1 || !strings.Contains(stderr, `unknown mode "fastest"`) {
		t.Errorf("-mode fastest: exit %d, stderr %q; want exit 1 naming the mode", code, stderr)
	}
}

// TestCheckerFlagSpellingsGone: the subcommands are the only spelling of
// lint, netlint and audit.
func TestCheckerFlagSpellingsGone(t *testing.T) {
	for _, f := range []string{"-lint", "-netlint", "-audit"} {
		if _, _, code := run(t, f, "examples/lint/clean.ch"); code != 2 {
			t.Errorf("balsabm %s: exit %d, want 2 (undefined flag)", f, code)
		}
	}
}

// TestCheckersAnswerFromCheckedArm: netlint and hazver answer from the
// flow's checked arm, in process and against a daemon alike. A merged
// circuit that fails netlint is a netlint finding, but fails hazver
// with the netlint gate's error; a spec that fails bmlint fails both
// with the bmlint gate's error. Every case exits 1.
func TestCheckersAnswerFromCheckedArm(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	const (
		twodrv = "cmd/balsabm/testdata/twodrv.ch"
		bm004  = "cmd/balsabm/testdata/bm004.ch"
		nl001  = `twodrv.opt: net "x_r": error: NL001: net has 2 drivers`
		bm004e = "bmlint: bm004.unopt.m: state 0: error: BM004: "
	)
	for _, c := range []struct {
		args           []string
		stdout, stderr string // expected substrings; "" expects the stream empty
	}{
		{[]string{"-mode", "opt", "netlint", twodrv}, nl001, ""},
		{[]string{"-mode", "opt", "hazver", twodrv}, "", "netlint: " + nl001},
		{[]string{"-mode", "unopt", "netlint", bm004}, "", bm004e},
		{[]string{"-mode", "unopt", "hazver", bm004}, "", bm004e},
	} {
		for _, form := range [][]string{nil, {"-server", hs.URL}} {
			args := append(append([]string{}, form...), c.args...)
			out, stderr, code := run(t, args...)
			at := "balsabm " + strings.Join(args, " ")
			if code != 1 {
				t.Errorf("%s: exit %d, want 1; stderr:\n%s", at, code, stderr)
			}
			for _, stream := range []struct{ name, got, want string }{{"stdout", out, c.stdout}, {"stderr", stderr, c.stderr}} {
				if stream.want == "" && stream.got != "" || !strings.Contains(stream.got, stream.want) {
					t.Errorf("%s: %s %q, want it to contain %q", at, stream.name, stream.got, stream.want)
				}
			}
		}
	}
}

// TestCommentOnlyInputRejected: a CH file with no expression is no
// design. lint reports CH000, and synth, netlint, hazver and artifacts
// fail on it too, in process and against a daemon (which answers 400),
// instead of treating it as a design with no controller.
func TestCommentOnlyInputRejected(t *testing.T) {
	s := server.New(server.Config{Workers: 1})
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		s.Close()
	}()
	file := filepath.Join(t.TempDir(), "comment.ch")
	if err := os.WriteFile(file, []byte("; only a comment\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"lint", file},
		{"synth", file},
		{"netlint", file},
		{"hazver", file},
		{"artifacts", file, out},
		{"-server", hs.URL, "synth", file},
		{"-server", hs.URL, "netlint", file},
		{"-server", hs.URL, "hazver", file},
	} {
		stdout, stderr, code := run(t, args...)
		if code != 1 || !strings.Contains(stdout+stderr, "empty input") {
			t.Errorf("balsabm %s: exit %d, stdout %q, stderr %q; want exit 1 naming the empty input", strings.Join(args, " "), code, stdout, stderr)
		}
	}
	if readDir(t, out) != nil {
		t.Errorf("artifacts wrote files for an empty input: %v", readDir(t, out))
	}
	const source = `"source":"; only a comment\n"`
	for path, body := range map[string]string{
		"/api/v1/jobs":    `{"kind":"synth",` + source + `}`,
		"/api/v1/netlint": `{` + source + `}`,
		"/api/v1/hazver":  `{` + source + `}`,
	} {
		resp, err := hs.Client().Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s of a comment-only source: HTTP %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestCheckerStatsShowClustering: the built-in checker forms run each
// arm the way the flow does, so -stats reports the opt arm's cluster
// stage; netlint and hazver run every gate of the arm, so it also
// reports each gate's findings, the other tiers' included.
func TestCheckerStatsShowClustering(t *testing.T) {
	gates := []string{"bmlint: stack.opt.", "netlint: stack.opt: info: NL200", "hazver: stack.opt: info: HZ200"}
	for _, c := range []struct {
		cmd      string
		findings []string
	}{
		{"bmlint", nil},
		{"netlint", gates},
		{"hazver", gates},
	} {
		_, stderr, code := run(t, "-stats", c.cmd)
		if code != 0 {
			t.Fatalf("balsabm -stats %s: exit %d: %s", c.cmd, code, stderr)
		}
		if !regexp.MustCompile(`(?m)^cluster +4 calls`).MatchString(stderr) {
			t.Errorf("balsabm -stats %s: no cluster stage:\n%s", c.cmd, stderr)
		}
		for _, f := range c.findings {
			if !strings.Contains(stderr, f) {
				t.Errorf("balsabm -stats %s: lacks %q:\n%s", c.cmd, f, stderr)
			}
		}
	}
}

// TestBareExpression: a CH file holding a single bare expression is one
// component named main to every command, as it is to lint: it
// synthesizes in both arms exactly as the same expression wrapped in
// (program main ...) by hand.
func TestBareExpression(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "lint", "clean.ch"))
	if err != nil {
		t.Fatal(err)
	}
	wrapped := filepath.Join(t.TempDir(), "wrapped.ch")
	if err := os.WriteFile(wrapped, []byte("(program main\n"+string(src)+")\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"unopt", "opt"} {
		bare, stderr, code := run(t, "-json", "-mode", mode, "synth", "examples/lint/clean.ch")
		if code != 0 {
			t.Fatalf("-mode %s synth clean.ch: exit %d: %s", mode, code, stderr)
		}
		if want, _, _ := run(t, "-json", "-mode", mode, "synth", wrapped); bare != want {
			t.Errorf("-mode %s: the bare expression synthesizes differently from its wrapped form:\n%s\n--- wrapped ---\n%s", mode, bare, want)
		}
	}
}

// TestBalsaFiles: the file forms of synth and the checkers read a .balsa
// source as the control netlist it compiles to, the way the daemon's
// format "balsa" does; its components are named after the file.
func TestBalsaFiles(t *testing.T) {
	for _, cmd := range []string{"synth", "bmlint", "netlint", "hazver"} {
		out, stderr, code := run(t, cmd, "internal/designs/balsa/counter8.balsa")
		if code != 0 || !strings.Contains(out, "counter8.seq3") {
			t.Errorf("%s counter8.balsa: exit %d, stderr %q; want exit 0 reporting counter8.seq3:\n%s", cmd, code, stderr, out)
		}
	}
}
