// Command perfbench is the end-to-end benchmark of tracevmd. It starts the
// real daemon on loopback, drives it from this one process over two
// keep-alive connections in a closed loop, checks every response against
// an independent reference, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer attribution) followed by one JSON result line.
//
//	perfbench --workload warm-plain --seed 1 --seconds 20 --trace 0
//	perfbench compare A.json B.json
//
// See NOTES.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times one run spawns and warms a daemon; setup_s
// is their median and the last daemon serves the timed window.
const setupReps = 5

// freshPerSecond sizes the fresh-source request pool: its reference
// outputs are computed before the first daemon starts, so the pool must
// outlast the timed window at any rate the daemon reaches. 150/s is about
// three times the rate a 2-vCPU box reaches today, headroom for a faster
// registration pipeline; each 100 programs cost about half a second of
// reference runs.
const freshPerSecond = 150

// conns is the client's connection count, one per daemon worker.
const conns = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "warm-plain", "warm-plain, warm-tiered or fresh-source")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the request sequence")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.daemon, "daemon", filepath.Join(".bench_build", "tracevmd"), "tracevmd binary")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "out"), "directory for results and span files")
	_ = fs.Parse(os.Args[1:])
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and prints its report and result line.
func run(o options) (Result, error) {
	spec, err := specByName(o.workload)
	if err != nil {
		return Result{}, err
	}
	res := Result{Workload: spec.Name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Machine: stampMachine()}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return res, err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v\n", spec.Name, o.seed, o.seconds, o.trace)
	fmt.Printf("workload: %s\n", man.why(spec.Name))
	fmt.Printf("machine: %s\n", res.Machine)
	if _, err := os.Stat(o.daemon); err != nil {
		return res, fmt.Errorf("daemon binary: %w", err)
	}

	// Inputs, from the seed alone.
	var seq, warmUp []Request
	if spec.Fresh {
		t := time.Now()
		var skipped int
		if seq, skipped, err = freshSequence(spec.Mode, o.seed, freshPerSecond*o.seconds); err != nil {
			return res, err
		}
		fmt.Printf("oracle: %d generated programs run on the per-instruction engine in %.1fs; %d skipped for passing %d instructions\n",
			len(seq), time.Since(t).Seconds(), skipped, freshMaxSteps)
	} else {
		seq = warmSequence(spec.Mode, o.seed, 100*o.seconds+len(warmBlock))
		for _, w := range warmBlock {
			warmUp = append(warmUp, builtinRequest(w.Name, spec.Mode))
		}
	}

	// Collect the input generation's and the oracle's garbage now, so this
	// process's collector does not compete with the daemon for the CPUs
	// during set-up and the window.
	debug.FreeOSMemory()
	d, setups, all, heap0, err := setUp(o, spec, warmUp)
	if err != nil {
		return res, err
	}
	defer d.Stop()

	// Timed window.
	c := newClient(d.Addr, conns)
	steal0 := cpuTicks()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var heap, rss float64
	var memErr error
	readMem := func() {
		if heap, memErr = d.LiveHeapMB(); memErr == nil {
			rss, memErr = d.PeakRSSMB()
		}
	}
	var probe func()
	if spec.MemAfter > 0 {
		probe = readMem
	}
	samples, exhausted := c.Loop(seq, deadline, spec.MemAfter, probe)
	c.Close()
	if exhausted {
		return res, fmt.Errorf("request pool of %d ran out before the window closed: raise freshPerSecond", len(seq))
	}
	all = append(all, samples...)
	var inWindow []Sample
	var lat []float64
	last := start
	for _, s := range samples {
		if s.OK() && !s.End.After(deadline) {
			inWindow = append(inWindow, s)
			lat = append(lat, float64(s.Latency().Nanoseconds())/1e6)
			if s.End.After(last) {
				last = s.End
			}
		}
	}
	if spec.MemAfter == 0 {
		readMem()
	} else if len(samples) < spec.MemAfter {
		return res, fmt.Errorf("memory is read after %d requests; the window completed %d", spec.MemAfter, len(samples))
	}
	if memErr != nil {
		return res, memErr
	}
	var st ServiceStats
	var heapEnd float64
	if o.trace {
		if st, err = d.Stats(); err != nil {
			return res, err
		}
		if heapEnd, err = d.LiveHeapMB(); err != nil {
			return res, err
		}
	}
	d.Stop()

	res.Attempted = len(all)
	for _, s := range all {
		if !s.OK() {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Printf("failure: request %d: %s\n", s.Index, s.Err)
			}
		}
	}
	if len(inWindow) == 0 {
		return res, fmt.Errorf("no request completed inside the %ds window", o.seconds)
	}

	memAt := "at the end of the window"
	if spec.MemAfter > 0 {
		memAt = fmt.Sprintf("after the window's first %d requests", spec.MemAfter)
	}
	// Completions over the time to the last one inside the window: the
	// window's idle tail after the last completion is not the daemon's.
	n := len(lat)
	busy := last.Sub(start).Seconds()
	thr := float64(n) / busy
	e2e := map[string]Metric{
		"throughput_rps":     {Value: thr, Unit: "1/s", Samples: n, Base: fmt.Sprintf("%d completions in %.3fs", n, busy)},
		"latency_p50_ms":     {Value: percentile(lat, 0.5), Unit: "ms", Samples: n, Base: fmt.Sprintf("%d beyond", beyond(n, 0.5))},
		"latency_p90_ms":     {Value: percentile(lat, 0.9), Unit: "ms", Samples: n, Base: fmt.Sprintf("%d beyond", beyond(n, 0.9))},
		"latency_geomean_ms": {Value: geomean(lat), Unit: "ms", Samples: n},
		"failed_ratio": {Value: ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: res.Attempted,
			Base: fmt.Sprintf("%d failed of %d attempted", res.Failed, res.Attempted)},
		"setup_s":      {Value: median(setups), Unit: "s", Samples: len(setups), Base: "median of spawn-to-ready plus warm-up pass"},
		"live_heap_mb": {Value: heap, Unit: "MiB", Samples: 1, Base: "daemon HeapAlloc after a forced GC " + memAt},
		"peak_rss_mb":  {Value: rss, Unit: "MiB", Samples: 1, Base: "daemon VmHWM " + memAt},
	}
	printMetrics("end-to-end", e2e)
	if !spec.Fresh {
		printClusters(seq, inWindow)
	}
	fmt.Printf("box: %.1f%% of CPU time stolen by the hypervisor during the window; completions per quarter of it: %v\n",
		stealPct(steal0), quarters(inWindow, start, deadline))
	res.Correct = res.Failed == 0

	if !o.trace {
		res.Metrics = e2e
		printHeadline(o.out, res)
	} else {
		programs := len(warmUp)
		if spec.Fresh {
			programs = len(samples)
		}
		layers, err := traced(o, spec, seq, warmUp, samples, inWindow, st, heapEnd-heap0, programs)
		if err != nil {
			return res, err
		}
		res.Metrics = layers
		printMetrics("per-layer", layers)
		untraced, why := peer(o.out, res, spec.Name)
		if why == "" {
			u := untraced.Metrics["throughput_rps"].Value
			fmt.Printf("tracing overhead: traced %.3f req/s over %d requests vs untraced %.3f req/s over %d requests (ratio %.3f)\n",
				thr, n, u, untraced.Metrics["throughput_rps"].Samples, ratio(thr, u))
		} else {
			fmt.Printf("tracing overhead: traced %.3f req/s over %d requests; untraced: %s for seed %d\n", thr, n, why, o.seed)
		}
	}
	if err := saveResult(o.out, res); err != nil {
		return res, err
	}
	return res, printResultLine(man, res)
}

// setUp spawns and warms the daemon setupReps times and returns the last
// one running, every set-up's duration (spawn to ready, plus one request
// per distinct program), the warm-up samples, and, on a traced run, the
// last daemon's live heap before its warm-up.
func setUp(o options, spec Spec, warmUp []Request) (*Daemon, []float64, []Sample, float64, error) {
	args := append([]string{"-workers", fmt.Sprint(conns)}, spec.DaemonArgs...)
	// Without a warm-up pass a set-up is a few milliseconds of process
	// start, spread wide (5 to 18 ms on a 2-vCPU box), so take many more
	// of them for a steady median.
	reps := setupReps
	if len(warmUp) == 0 {
		reps = 12 * setupReps
	}
	var setups []float64
	var warm []Sample
	var heap0 float64
	for rep := 0; ; rep++ {
		d, ready, err := startDaemon(o.daemon, args)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		last := rep == reps-1
		if last && o.trace {
			if heap0, err = d.LiveHeapMB(); err != nil {
				d.Stop()
				return nil, nil, nil, 0, err
			}
		}
		c := newClient(d.Addr, conns)
		t := time.Now()
		ws, _ := c.Loop(warmUp, time.Time{}, 0, nil)
		setups = append(setups, (ready + time.Since(t)).Seconds())
		c.Close()
		warm = append(warm, ws...)
		if last {
			return d, setups, warm, heap0, nil
		}
		d.Stop()
	}
}

// traced runs the in-process layer pass and derives the per-layer metrics.
func traced(o options, spec Spec, seq, warmUp []Request, samples, inWindow []Sample,
	st ServiceStats, heapDeltaMB float64, programs int) (map[string]Metric, error) {
	sp := newSpans()
	for _, s := range samples {
		p := sp.Add("request", s.Index, -1, s.Start, s.End)
		if s.OK() {
			sp.AddChildAtEnd("session", p, time.Duration(s.Resp.WallMs*float64(time.Millisecond)))
		}
	}
	in := layerInput{spec: spec, warmUp: warmUp}
	if spec.Fresh {
		in.prefix = seq[:min(freshLayerPrograms, len(seq))]
		for _, r := range in.prefix {
			in.sources = append(in.sources, r.Source)
		}
	} else {
		in.prefix = seq[:blockLen()]
		for _, w := range warmUp {
			in.sources = append(in.sources, builtinSource(w.Program))
		}
		// Three passes over the six built-ins give each call 18 samples.
		in.sources = append(in.sources, append(in.sources, in.sources...)...)
	}
	t := time.Now()
	lt, err := measureLayers(in, sp, len(seq))
	if err != nil {
		return nil, err
	}
	fmt.Printf("in-process layer pass: %.1fs\n", time.Since(t).Seconds())
	if err := writeSpans(o, sp); err != nil {
		return nil, err
	}
	if lt.doFailures > 0 {
		return nil, fmt.Errorf("%d in-process Service.Do results differ from the reference", lt.doFailures)
	}
	return layerMetrics(in, samples, inWindow, sp.list, st, lt, heapDeltaMB, programs), nil
}

func writeSpans(o options, sp *Spans) error {
	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range sp.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Printf("spans: %d written to %s\n", len(sp.list), path)
	return f.Close()
}

func printMetrics(kind string, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		line := fmt.Sprintf("%s: %-32s %14.4f %-6s samples=%d", kind, k, v.Value, v.Unit, v.Samples)
		if v.Base != "" {
			line += "  (" + v.Base + ")"
		}
		fmt.Println(line)
	}
}

// quarters counts the completions in each quarter of the window, to show
// drift inside one run.
func quarters(inWindow []Sample, start, deadline time.Time) [4]int {
	var q [4]int
	span := deadline.Sub(start)
	for _, s := range inWindow {
		i := int(4 * s.End.Sub(start) / span)
		q[min(i, 3)]++
	}
	return q
}

// printClusters prints each built-in's latency cluster: the warm mixes'
// percentiles are read against these.
func printClusters(seq []Request, inWindow []Sample) {
	by := make(map[string][]float64)
	for _, s := range inWindow {
		name := seq[s.Index].Program
		by[name] = append(by[name], float64(s.Latency().Nanoseconds())/1e6)
	}
	for _, w := range warmBlock {
		xs := by[w.Name]
		fmt.Printf("cluster: %-10s n=%-4d p10=%8.1f p50=%8.1f p90=%8.1f ms\n", w.Name, len(xs),
			percentile(xs, 0.1), percentile(xs, 0.5), percentile(xs, 0.9))
	}
}

// printHeadline prints the "does trace dispatch pay" ratio once both warm
// workloads have a result for this seed on this machine.
func printHeadline(outDir string, self Result) {
	if self.Workload != "warm-plain" && self.Workload != "warm-tiered" {
		return
	}
	other := "warm-tiered"
	if self.Workload == other {
		other = "warm-plain"
	}
	peerRes, why := peer(outDir, self, other)
	if why != "" {
		fmt.Printf("headline: warm-tiered / warm-plain throughput needs both; %s: %s for seed %d\n", other, why, self.Seed)
		return
	}
	tiered, plain := self, peerRes
	if self.Workload == "warm-plain" {
		tiered, plain = peerRes, self
	}
	t, p := tiered.Metrics["throughput_rps"], plain.Metrics["throughput_rps"]
	fmt.Printf("headline: warm-tiered / warm-plain throughput = %.3f (%.3f req/s over %d requests / %.3f req/s over %d requests)\n",
		ratio(t.Value, p.Value), t.Value, t.Samples, p.Value, p.Samples)
}

// Manifest is the part of BENCHMARK.json the run reads: why each
// workload exists and which metrics the result line carries.
type Manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []ManifestMetric `json:"end_to_end"`
	PerLayer []ManifestMetric `json:"per_layer"`
}

type ManifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (Manifest, error) {
	var m Manifest
	b, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

func (m Manifest) why(workload string) string {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// printResultLine prints the last line of standard output: exactly the
// metrics the manifest declares for this trace setting, each in its
// declared unit. failed_ratio is reported above it but not declared, as
// it is 0 on every correct run; the line carries it as failed/attempted.
func printResultLine(man Manifest, res Result) error {
	declared := man.EndToEnd
	if res.Trace {
		declared = man.PerLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]val)}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("manifest declares %s in %s; the run measured %q", d.Name, d.Unit, m.Unit)
		}
		out.Metrics[d.Name] = val{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// compareMain prints metric-by-metric ratios of two stored results and
// refuses results from different machines.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := comparable(a, b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: refusing to compare:", err)
		return 3
	}
	names := make([]string, 0, len(a.Metrics))
	for k := range a.Metrics {
		if _, ok := b.Metrics[k]; ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Printf("base %s seed %d vs new %s seed %d on %s\n", a.Workload, a.Seed, b.Workload, b.Seed, a.Machine)
	for _, k := range names {
		x, y := a.Metrics[k], b.Metrics[k]
		fmt.Printf("%-32s %14.4f -> %14.4f %-6s ratio %s\n", k, x.Value, y.Value, x.Unit,
			strings.TrimSpace(fmt.Sprintf("%8.4f", ratio(y.Value, x.Value))))
	}
	return 0
}
