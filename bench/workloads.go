package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"

	"balsabm/internal/api"
	"balsabm/internal/designs"
	"balsabm/internal/flow"
	"balsabm/internal/server"
	"balsabm/internal/store"
)

// The frozen seed-1 inputs and the digests of their expected outputs.
// gen_test.go regenerates all three from the generator and checks them
// byte for byte (go test -run TestInputs -update rewrites them).
var (
	//go:embed testdata/corpus-seed1.ch
	corpusText string
	//go:embed testdata/edits-seed1.ch
	editsText string
	//go:embed testdata/expected-seed1.json
	expectedJSON []byte
)

// expected pins every output the benchmark checks, as digest prefixes:
// each Table 3 design's DebugString, and the encoded result of the
// stack base job, of every corpus netlist and of every edit.
type expected struct {
	Table3 map[string]string `json:"table3"`
	Stack  string            `json:"stack"`
	Corpus []string          `json:"corpus"`
	Edits  []string          `json:"edits"`
}

func loadExpected() (*expected, error) {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return nil, fmt.Errorf("expected digests: %w", err)
	}
	return &exp, nil
}

// digest is the pinned form of an output: a 64-bit sha256 prefix.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// A workload is one closed loop of ops: a single client sends the next
// op when the previous one completes.
type workload struct {
	name string
	// setup makes the workload ready to run: inputs loaded, servers
	// started, one untimed warm-up op done.
	setup func(ctx context.Context, e *env) (*session, error)
}

var workloadOrder = []string{"table3", "synth-corpus", "edit-loop"}

var workloads = map[string]*workload{
	"table3":       {name: "table3", setup: setupTable3},
	"synth-corpus": {name: "synth-corpus", setup: setupSynthCorpus},
	"edit-loop":    {name: "edit-loop", setup: setupEditLoop},
}

// env is what a workload's setup gets to work with.
type env struct {
	seed    int64
	workers int       // flow pool size of every op
	exp     *expected // pinned output digests
	rp      *replayer // non-nil in a traced run: ops replay layer by layer
	tmp     string    // scratch directory, removed when the run ends
}

// session is a workload made ready to run.
type session struct {
	// pass is the number of ops that visit every input once; a run ends
	// on a pass boundary, so each run measures the same input mix.
	pass int
	// newPass, if set, prepares every pass after the first; its time
	// is not part of any op's latency.
	newPass func(ctx context.Context) error
	// op runs op i, checks its output, and returns the circuit area it
	// produced.
	op    func(ctx context.Context, i int) (float64, error)
	close func()
}

// checkTable3 compares each design's DebugString with its pinned
// digest and returns the summed area of both arms of every design.
func checkTable3(rs []*flow.DesignResult, want map[string]string) (float64, error) {
	if len(rs) != len(want) {
		return 0, fmt.Errorf("table3: %d designs, want %d", len(rs), len(want))
	}
	area := 0.0
	for _, r := range rs {
		if got := digest([]byte(r.DebugString())); got != want[r.Design] {
			return 0, fmt.Errorf("table3: %s: output digest %s, want %s", r.Design, got, want[r.Design])
		}
		area += r.Unopt.TotalArea() + r.Opt.TotalArea()
	}
	return area, nil
}

// synthDigest checks that a synth result carries no netlint or hazver
// error and returns its digest, summed controller area and encoded
// size.
func synthDigest(res *api.JobResult) (d string, area float64, size int, err error) {
	if res == nil || res.Synth == nil {
		return "", 0, 0, errors.New("synth: no result")
	}
	s := res.Synth
	if s.Netlint == nil || s.Netlint.Errors > 0 || s.Hazver == nil || s.Hazver.Errors > 0 {
		return "", 0, 0, errors.New("synth: result carries netlint or hazver errors")
	}
	b, err := api.Encode(s)
	if err != nil {
		return "", 0, 0, err
	}
	for _, c := range s.Controllers {
		area += c.Controller.Area
	}
	return digest(b), area, len(b), nil
}

// checkSynth checks a synth result against its pinned digest and
// returns the summed controller area and the encoded size.
func checkSynth(res *api.JobResult, want string) (area float64, size int, err error) {
	d, area, size, err := synthDigest(res)
	if err != nil {
		return 0, 0, err
	}
	if d != want {
		return 0, 0, fmt.Errorf("synth: output digest %s, want %s", d, want)
	}
	return area, size, nil
}

// synthRequest is the request of every synth op: the paper's arm
// (clustering, then speed-split mapping).
func synthRequest(src string, workers int, base string) api.JobRequest {
	return api.JobRequest{Kind: api.KindSynth, Source: src, Mode: api.ModeOpt,
		Config: api.FlowConfig{Workers: workers}, BaseJobID: base}
}

// setupTable3: one op is the whole Table 3 flow on the paper's four
// designs, both arms, with fresh options so no cache carries between
// ops. Its inputs are fixed; the seed has nothing to vary.
func setupTable3(ctx context.Context, e *env) (*session, error) {
	op := func(ctx context.Context, _ int) (float64, error) {
		if e.rp != nil {
			return e.rp.table3(ctx, e.exp.Table3)
		}
		rs, err := flow.RunAllCtx(ctx, &flow.Options{Workers: e.workers})
		if err != nil {
			return 0, err
		}
		return checkTable3(rs, e.exp.Table3)
	}
	if _, err := op(ctx, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &session{pass: 1, op: op, close: func() {}}, nil
}

// setupSynthCorpus: one op synthesizes one netlist of the frozen
// corpus with server.RunSynth and no controller cache, so every shape
// is a cold miss. Each pass visits the corpus in a seeded order.
func setupSynthCorpus(ctx context.Context, e *env) (*session, error) {
	corpus, err := parseCorpus(corpusText)
	if err != nil {
		return nil, err
	}
	if len(corpus) != len(e.exp.Corpus) {
		return nil, fmt.Errorf("corpus has %d netlists, %d pinned", len(corpus), len(e.exp.Corpus))
	}
	srcs := make([]string, len(corpus))
	for i, n := range corpus {
		srcs[i] = n.Format()
	}
	synth := func(ctx context.Context, k int) (float64, error) {
		var res *api.JobResult
		var err error
		if e.rp != nil {
			e.rp.tr.design = fmt.Sprintf("corpus-%d", k)
			res, err = e.rp.synth(ctx, srcs[k])
		} else {
			res, err = server.RunSynth(ctx, synthRequest(srcs[k], e.workers, ""), &flow.Metrics{}, nil)
		}
		if err != nil {
			return 0, err
		}
		area, _, err := checkSynth(res, e.exp.Corpus[k])
		return area, err
	}
	if _, err := synth(ctx, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rng := rand.New(rand.NewSource(e.seed))
	var order []int
	op := func(ctx context.Context, i int) (float64, error) {
		if i%len(srcs) == 0 {
			order = rng.Perm(len(srcs))
		}
		return synth(ctx, order[i%len(srcs)])
	}
	return &session{pass: len(srcs), op: op, close: func() {}}, nil
}

// setupEditLoop: an in-process balsabmd, reached over loopback HTTP.
// A pass starts a fresh daemon — a durable store in a new directory,
// one job worker — and submits the stack design as the base job and
// the list's first edit as an untimed warm-up. Its ops then submit
// every other edit once, in a seeded order: a one-controller edit of
// the stack with baseJobID, a wait, and a result fetch. Every pass
// starts from the same store and runs the same mix, and no edit repeats
// within a daemon's life, where its result cache would answer it.
func setupEditLoop(ctx context.Context, e *env) (*session, error) {
	edits, err := parseEdits(editsText)
	if err != nil {
		return nil, err
	}
	if len(edits) != len(e.exp.Edits) || len(edits) < 2 {
		return nil, fmt.Errorf("edit list has %d edits, %d pinned", len(edits), len(e.exp.Edits))
	}
	base := designs.Stack().Control()
	baseSrc := base.Format()
	srcs := make([]string, len(edits))
	for i, ed := range edits {
		srcs[i] = applyEdit(base, ed).Format()
	}

	var d *daemon
	var baseID string
	edit := func(ctx context.Context, k int) (float64, error) {
		req := synthRequest(srcs[k], e.workers, baseID)
		if e.rp != nil {
			e.rp.tr.design = fmt.Sprintf("edit-%d", k)
			return e.rp.edit(ctx, d.client, req, e.exp.Edits[k])
		}
		res, err := d.client.Run(ctx, req)
		if err != nil {
			return 0, err
		}
		area, _, err := checkSynth(res, e.exp.Edits[k])
		return area, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	var order []int
	s := &session{pass: len(srcs) - 1}
	s.newPass = func(ctx context.Context) error {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = startDaemon(e.tmp); err != nil {
			return err
		}
		if baseID, err = submitBase(ctx, d, baseSrc, e); err != nil {
			return err
		}
		if e.rp != nil {
			// The replay keeps its own controller tier; seeding it with
			// the base job makes it reuse what the daemon's store reuses.
			e.rp.ctl = map[string]*entry{}
			if _, err := e.rp.synth(ctx, baseSrc); err != nil {
				return fmt.Errorf("base job replay: %w", err)
			}
		}
		if _, err := edit(ctx, 0); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		order = rng.Perm(s.pass)
		return nil
	}
	s.op = func(ctx context.Context, i int) (float64, error) { return edit(ctx, 1+order[i%s.pass]) }
	s.close = func() { d.close() }
	if err := s.newPass(ctx); err != nil {
		if d != nil {
			d.close()
		}
		return nil, err
	}
	return s, nil
}

// submitBase runs the stack base job on a daemon, checks its result
// and returns its job ID.
func submitBase(ctx context.Context, d *daemon, src string, e *env) (string, error) {
	st, err := d.client.Submit(ctx, synthRequest(src, e.workers, ""))
	if err != nil {
		return "", fmt.Errorf("base job: %w", err)
	}
	if st, err = d.client.Wait(ctx, st.ID); err != nil {
		return "", fmt.Errorf("base job: %w", err)
	}
	if st.State != api.StateDone {
		return "", fmt.Errorf("base job %s %s: %s", st.ID, st.State, st.Error)
	}
	res, err := d.client.Result(ctx, st.ID)
	if err != nil {
		return "", fmt.Errorf("base job: %w", err)
	}
	if _, _, err := checkSynth(res, e.exp.Stack); err != nil {
		return "", fmt.Errorf("base job: %w", err)
	}
	return st.ID, nil
}

// daemon is an in-process balsabmd: a durable store, the job manager
// behind its HTTP handler, and a client holding one connection.
type daemon struct {
	dir    string
	store  *store.Store
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	tr     *http.Transport
	client *server.Client
}

func startDaemon(tmp string) (*daemon, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		dir:    dir,
		store:  st,
		srv:    server.New(server.Config{Workers: 1, Store: st}),
		served: make(chan struct{}),
		tr:     &http.Transport{MaxConnsPerHost: 1},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.client = &server.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tr}}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return d, nil
}

// close stops the HTTP server and waits for it, stops the job manager,
// closes the store and removes its directory.
func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.tr.CloseIdleConnections()
	d.srv.Close()
	d.store.Close()
	os.RemoveAll(d.dir)
}
