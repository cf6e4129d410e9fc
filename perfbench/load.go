package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/minijava"
	"repro/internal/progen"
	"repro/internal/vm"
)

// Spec is one benchmark workload: the daemon it runs against and the
// requests it sends.
type Spec struct {
	Name string
	// Mode is the dispatch mode every request asks for.
	Mode string
	// DaemonArgs are tracevmd flags beyond the shared -workers 2.
	DaemonArgs []string
	// Fresh marks the workload whose every request is a never-seen
	// generated program; the others draw from the built-ins.
	Fresh bool
	// MemAfter, when set, reads the memory metrics right after that many
	// requests of the window complete instead of at its end. The daemon
	// retains every program it registered, so on fresh-source the heap at
	// the end grows with throughput; read at a fixed count it measures
	// retention alone, and a faster daemon does not read as a larger one.
	MemAfter int
}

var specs = []Spec{
	{
		Name: "warm-plain",
		Mode: "plain",
	},
	{
		Name:       "warm-tiered",
		Mode:       "trace-deploy",
		DaemonArgs: []string{"-compile-traces"},
	},
	{
		Name:     "fresh-source",
		Mode:     "trace-deploy",
		Fresh:    true,
		MemAfter: 300,
	},
}

func specByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q (warm-plain, warm-tiered, fresh-source)", name)
}

// warmBlock is the popularity of each built-in in the warm mixes, a
// skewed draw over a block of 20 requests. Every block holds exactly these
// counts in a seeded order, so the seed moves the order of requests but
// never the mix; an independent draw per request would move the mix by
// several percent at the ~200 requests of one run, and the throughput
// with it.
//
// The counts put each reported percentile in the middle of one program's
// latency cluster, in plain and trace-deploy alike, never on the boundary
// between two clusters nor in a cluster's tail, where contention moves it
// most. Latency order on a 2-CPU box: soot ~110 ms, raytrace ~125, javac
// ~210, scimark ~300, then compress ~580 and mpegaudio ~430 (trace-deploy)
// or 570-1000 (plain). The nearest-rank p50 of a block (rank 10 of 20) is the
// middle of javac (ranks 8-13); p90 (rank 18) falls inside compress (ranks
// 17-20 in trace-deploy, 16-19 in plain).
var warmBlock = []struct {
	Name  string
	Count int
}{
	{"javac", 6},
	{"soot", 6},
	{"compress", 4},
	{"scimark", 2},
	{"raytrace", 1},
	{"mpegaudio", 1},
}

// golden is each built-in's complete output, the same strings the
// workload package's golden test freezes.
var golden = map[string]string{
	"compress":  "roundtrip=1\ncodes=17182\nchecksum=692506413\n",
	"javac":     "stmts=1920\nfolded=152\nerrors=0\nchecksum=194820006\n",
	"raytrace":  "lit=1273\nchecksum=737307344\n",
	"mpegaudio": "bits=108553\nchecksum=533937017\n",
	"soot":      "iters=16442\nchecksum=138015871\n",
	"scimark":   "fft=-3728\nsor=1144839\nmc=3134\nsparse=1211245\nlu=1029628\n",
}

// Request is one generated order: its wire body and the output a correct
// daemon must return.
type Request struct {
	Program string // built-in name or generated-program label
	Source  string // inline source (fresh workload only)
	Body    []byte
	Want    string
}

// warmSequence returns n requests of the warm mix in mode, ordered by seed.
func warmSequence(mode string, seed int64, n int) []Request {
	var block []string
	for _, w := range warmBlock {
		for i := 0; i < w.Count; i++ {
			block = append(block, w.Name)
		}
	}
	r := rand.New(rand.NewSource(seed))
	seq := make([]Request, 0, n)
	for len(seq) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, name := range block {
			if len(seq) == n {
				break
			}
			seq = append(seq, builtinRequest(name, mode))
		}
	}
	return seq
}

// blockLen is the number of requests in one block of the warm mix.
func blockLen() int {
	n := 0
	for _, w := range warmBlock {
		n += w.Count
	}
	return n
}

// builtinRequest runs one built-in in mode.
func builtinRequest(name, mode string) Request {
	body, _ := json.Marshal(api.RunRequest{Workload: name, Mode: mode})
	return Request{Program: name, Body: body, Want: golden[name]}
}

// programSeed derives the i-th generated program's seed from the workload
// seed; distinct (seed, i) pairs give distinct generator seeds for any
// i < 1<<24.
func programSeed(seed int64, i int) int64 { return seed<<24 | int64(i) }

// freshMaxSteps bounds a generated program's run. The generator bounds
// every loop, but nesting and calls still make a rare program run for
// seconds (one in a few hundred passes 100M instructions); the workload
// is short cold programs, so those are skipped.
const freshMaxSteps = 10_000_000

// freshSequence returns the never-seen generated programs in mode among
// the first n candidates of the seed whose reference run stays within
// freshMaxSteps, in candidate order, each with its reference output, and
// the number of candidates skipped.
func freshSequence(mode string, seed int64, n int) ([]Request, int, error) {
	seq := make([]Request, n)
	for i := range seq {
		src := progen.Generate(programSeed(seed, i), progen.Config{})
		body, _ := json.Marshal(api.RunRequest{Source: src, Mode: mode})
		seq[i] = Request{Program: fmt.Sprintf("gen-%d-%d", seed, i), Source: src, Body: body}
	}
	long, err := fillReferences(seq, freshMaxSteps)
	if err != nil {
		return nil, 0, err
	}
	kept := seq[:0]
	for i, r := range seq {
		if !long[i] {
			kept = append(kept, r)
		}
	}
	return kept, n - len(kept), nil
}

// referenceOutput runs src on the per-instruction engine in this process:
// the oracle for generated programs never asks the daemon under test.
// long reports a run stopped at maxSteps.
func referenceOutput(src string, maxSteps int64) (out string, long bool, err error) {
	prog, err := minijava.Compile(src)
	if err != nil {
		return "", false, err
	}
	pcfg, err := cfg.BuildProgram(prog)
	if err != nil {
		return "", false, err
	}
	var buf bytes.Buffer
	s, err := core.NewSession(prog, pcfg, core.SessionOptions{Mode: core.ModeInstr, Out: &buf, MaxSteps: maxSteps})
	if err != nil {
		return "", false, err
	}
	if err := s.Run(); err != nil {
		if t, ok := vm.AsTrap(err); ok && t.Kind == vm.TrapStepLimit {
			return "", true, nil
		}
		return "", false, err
	}
	return buf.String(), false, nil
}

// fillReferences computes every request's reference output, spread over
// the machine's cores, and marks the runs that hit maxSteps.
func fillReferences(seq []Request, maxSteps int64) (long []bool, err error) {
	long = make([]bool, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				out, l, err := referenceOutput(seq[i].Source, maxSteps)
				if err != nil {
					select {
					case errs <- fmt.Errorf("%s: reference run: %w", seq[i].Program, err):
					default:
					}
					return
				}
				seq[i].Want, long[i] = out, l
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, err
	default:
		return long, nil
	}
}

// Sample is one request's outcome as the client saw it.
type Sample struct {
	Index      int
	Start, End time.Time
	Status     int
	Err        string // transport error, non-200 status or output mismatch
	Resp       api.RunResponse
}

// Latency is send to full response body.
func (s Sample) Latency() time.Duration { return s.End.Sub(s.Start) }

func (s Sample) OK() bool { return s.Err == "" }

// check flags a response whose output differs from the reference.
func check(want string, status int, resp api.RunResponse) string {
	if status != http.StatusOK {
		return fmt.Sprintf("HTTP %d", status)
	}
	if resp.Output != want {
		return fmt.Sprintf("output mismatch: got %q, want %q", clip(resp.Output), clip(want))
	}
	return ""
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// Client drives one daemon over at most conns keep-alive connections.
type Client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(addr string, conns int) *Client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &Client{base: "http://" + addr, http: &http.Client{Transport: tr, Timeout: time.Minute}, conns: conns}
}

func (c *Client) Close() { c.http.CloseIdleConnections() }

// Do sends one request and times it from send to the last body byte.
func (c *Client) Do(idx int, req Request) Sample {
	s := Sample{Index: idx, Start: time.Now()}
	hresp, err := c.http.Post(c.base+"/v1/run", "application/json", bytes.NewReader(req.Body))
	if err != nil {
		s.End = time.Now()
		s.Err = "transport: " + err.Error()
		return s
	}
	body, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	s.End = time.Now()
	s.Status = hresp.StatusCode
	if err != nil {
		s.Err = "transport: " + err.Error()
		return s
	}
	if s.Status == http.StatusOK {
		if err := json.Unmarshal(body, &s.Resp); err != nil {
			s.Err = "bad response JSON: " + err.Error()
			return s
		}
	}
	s.Err = check(req.Want, s.Status, s.Resp)
	return s
}

// Loop runs the closed loop: every connection sends its next request only
// after its previous reply, taking requests from seq in order. It stops
// issuing at deadline (a zero deadline issues all of seq) and returns every
// sample in completion order, including those that finished after it.
// exhausted reports that seq ran out before the deadline. A non-nil probe
// runs once, after the probeAfter-th request completes, while no request
// is in flight: the other connection finishes its request and waits.
func (c *Client) Loop(seq []Request, deadline time.Time, probeAfter int, probe func()) (samples []Sample, exhausted bool) {
	var next atomic.Int64
	var mu sync.Mutex
	var gate sync.RWMutex // held shared by a request in flight, exclusively by the probe
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					if !deadline.IsZero() {
						mu.Lock()
						exhausted = true
						mu.Unlock()
					}
					return
				}
				gate.RLock()
				s := c.Do(i, seq[i])
				gate.RUnlock()
				mu.Lock()
				samples = append(samples, s)
				fire := probe != nil && len(samples) == probeAfter
				mu.Unlock()
				if fire {
					gate.Lock()
					probe()
					gate.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return samples, exhausted
}
