package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/api"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/minijava"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// countPrefix is how many requests, taken from the start of the seeded
// sequence, the summed response counters cover. A fixed prefix, not the
// timed window, so the counts are exact work counts that repeat between
// runs of one seed on warm-plain.
const countPrefix = 60

// freshLayerPrograms bounds the generated programs the in-process
// registration and Service.Do passes replay on fresh-source; each costs a
// full registration (tens of milliseconds).
const freshLayerPrograms = 60

// serviceConfig mirrors the daemon the workload runs against: tracevmd's
// flag defaults with -workers 2 and the workload's extra flags.
func serviceConfig(spec Spec) serve.Config {
	c := serve.Config{
		Workers:         2,
		EventTrace:      4096,
		QuarantineAfter: 3,
		TraceCache:      core.Config{MaxTraces: 512, MaxCachedBlocks: 8192},
		Breaker:         serve.BreakerConfig{ChurnPerK: 8, TripAfter: 3, Cooldown: 30 * time.Second},
	}
	for _, a := range spec.DaemonArgs {
		if a == "-compile-traces" {
			c.TraceCache.CompileTraces = true
		}
	}
	return c
}

func toServe(req Request, mode string) serve.Request {
	m, _ := api.ParseMode(mode)
	if req.Source != "" {
		return serve.Request{Source: req.Source, Kind: serve.KindMiniJava, Mode: m}
	}
	return serve.Request{Workload: req.Program, Mode: m}
}

// layerInput is what the in-process pass replays.
type layerInput struct {
	spec    Spec
	prefix  []Request // requests replayed through Service.Do and the registry
	sources []string  // program sources timed through the registration pipeline
	warmUp  []Request // one request per distinct program (warm workloads)
}

// layerTimes is the in-process pass's raw output.
type layerTimes struct {
	doFailures int
	overheads  []harness.Overhead
	tiers      []harness.TierThroughput
}

// measureLayers calls each layer's public functions in this process,
// recording a span around every call. It runs after the HTTP pass, never
// beside it.
func measureLayers(in layerInput, sp *Spans, req0 int) (layerTimes, error) {
	var lt layerTimes
	req := req0

	// serve: Service.Do under the daemon's configuration, two callers in a
	// closed loop as over HTTP. Do's self time is queue wait, registry,
	// shard acquire and session build.
	svc := serve.New(serviceConfig(in.spec))
	for _, r := range in.warmUp {
		if _, err := svc.Do(context.Background(), toServe(r, in.spec.Mode)); err != nil {
			svc.Close()
			return lt, fmt.Errorf("in-process warm-up %s: %w", r.Program, err)
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(in.prefix) {
					return
				}
				r := in.prefix[i]
				start := time.Now()
				resp, err := svc.Do(context.Background(), toServe(r, in.spec.Mode))
				end := time.Now()
				mu.Lock()
				if err != nil || resp.Output != r.Want {
					lt.doFailures++
				} else {
					p := sp.Add("serve.do", req+i, -1, start, end)
					sp.AddChildAtEnd("session", p, resp.Wall)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	svc.Close()
	req += len(in.prefix)

	// serve: registry resolution alone, on a fresh registry, in sequence
	// order (misses compile; hits are a map lookup).
	reg := serve.NewRegistry()
	for _, r := range in.prefix {
		start := time.Now()
		var err error
		if r.Source != "" {
			_, err = reg.Source(serve.KindMiniJava, r.Source)
		} else {
			_, err = reg.Workload(r.Program)
		}
		if err != nil {
			return lt, fmt.Errorf("registry %s: %w", r.Program, err)
		}
		sp.Add("serve.registry_resolve", req, -1, start, time.Now())
		req++
	}

	// minijava, analysis, cfg, valueflow, core: the registration pipeline
	// call by call, then one session build in the workload's mode.
	mode, _ := api.ParseMode(in.spec.Mode)
	conf := serviceConfig(in.spec).TraceCache
	for _, src := range in.sources {
		rootStart := time.Now()
		root := sp.Add("register", req, -1, rootStart, rootStart)
		t0 := time.Now()
		prog, err := minijava.Compile(src)
		if err != nil {
			return lt, err
		}
		t1 := time.Now()
		analysis.Verify(prog)
		t2 := time.Now()
		pcfg, err := cfg.BuildProgram(prog)
		if err != nil {
			return lt, err
		}
		t3 := time.Now()
		facts := valueflow.Compute(pcfg)
		t4 := time.Now()
		hints := analysis.ComputeHintsWithFacts(pcfg, facts)
		t5 := time.Now()
		sess, err := core.NewSession(prog, pcfg, core.SessionOptions{
			Mode: mode, Config: conf, Facts: facts, Hints: hints,
		})
		t6 := time.Now()
		if err != nil || sess == nil {
			return lt, fmt.Errorf("new session: %v", err)
		}
		sp.Add("minijava.compile", req, root, t0, t1)
		sp.Add("analysis.verify", req, root, t1, t2)
		sp.Add("cfg.build", req, root, t2, t3)
		sp.Add("valueflow.compute", req, root, t3, t4)
		sp.Add("analysis.hints", req, root, t4, t5)
		sp.list[root].End = t5.Sub(sp.epoch).Nanoseconds()
		sp.Add("core.new_session", req, -1, t5, t6)
		req++
	}

	// vm, profile, trace: the repository's own min-of-N harness over the
	// six built-ins, whatever the workload, since these layers' costs are
	// per dispatch, not per request.
	suite := harness.NewSuite()
	suite.Repeats = 2
	for _, name := range workload.Names() {
		start := time.Now()
		o, err := suite.MeasureOverhead(name)
		if err != nil {
			return lt, err
		}
		sp.Add("harness.overhead", req, -1, start, time.Now())
		start = time.Now()
		tt, err := suite.MeasureTierThroughput(name)
		if err != nil {
			return lt, err
		}
		sp.Add("harness.tier_throughput", req, -1, start, time.Now())
		req++
		lt.overheads = append(lt.overheads, o)
		lt.tiers = append(lt.tiers, tt)
	}
	return lt, nil
}

func builtinSource(name string) string {
	w, _ := workload.ByName(name)
	return w.Source
}

// sumCounters adds the response counters of the samples whose sequence
// index is below n.
func sumCounters(samples []Sample, n int) (stats.Counters, int) {
	var sum stats.Counters
	k := 0
	for _, s := range samples {
		if s.Index < n && s.OK() {
			sum.Add(&s.Resp.Counters)
			k++
		}
	}
	return sum, k
}

// durationsOf returns the lengths of every span named name.
func durationsOf(spans []Span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// layerMetrics assembles the per-layer figures from the HTTP pass's
// samples and spans, the daemon's own counters, and the in-process pass.
func layerMetrics(in layerInput, samples []Sample, inWindow []Sample, spans []Span,
	st ServiceStats, lt layerTimes, heapDeltaMB float64, programs int) map[string]Metric {
	m := make(map[string]Metric)
	p50 := func(name string, xs []float64, unit, base string) {
		m[name] = Metric{Value: percentile(xs, 0.5), Unit: unit, Samples: len(xs), Base: base}
	}

	nonexec := msOf(SelfTimes(spans, named("request")))
	doSelf := msOf(SelfTimes(spans, named("serve.do")))
	p50("tracevmd.nonexec_ms", nonexec, "ms", "p50 of client latency minus response wallMs")
	p50("serve.do_self_ms", doSelf, "ms", "p50 of in-process Service.Do minus Response.Wall")
	// The HTTP and JSON share compares the two self times over the same
	// requests: the prefix the in-process pass replayed.
	prefixNonexec := msOf(SelfTimes(spans, func(s Span) bool { return s.Name == "request" && s.Req < len(in.prefix) }))
	m["tracevmd.http_json_ms"] = Metric{
		Value: percentile(prefixNonexec, 0.5) - percentile(doSelf, 0.5), Unit: "ms", Samples: len(prefixNonexec),
		Base: fmt.Sprintf("p50 nonexec minus p50 Service.Do self time over the first %d requests", len(in.prefix)),
	}
	p50("serve.registry_resolve_ms", msOf(durationsOf(spans, "serve.registry_resolve")), "ms",
		"p50 of Registry.Source/Workload calls in sequence order on a fresh registry")
	lookups := st.RegistryHits + st.RegistryMisses
	m["serve.registry_hit_ratio"] = Metric{Value: ratio(float64(st.RegistryHits), float64(lookups)), Unit: "ratio",
		Base: fmt.Sprintf("%d hits of %d daemon registry lookups", st.RegistryHits, lookups)}
	m["serve.epoch_merges"] = Metric{Value: float64(st.EpochMerges), Unit: "count",
		Base: fmt.Sprintf("daemon total over %d accepted requests", st.Accepted)}
	m["serve.demoted_requests"] = Metric{Value: float64(st.BreakerDemoted), Unit: "count",
		Base: fmt.Sprintf("daemon total over %d accepted requests", st.Accepted)}
	m["serve.queue_rejected"] = Metric{Value: float64(st.Rejected), Unit: "count",
		Base: fmt.Sprintf("daemon total over %d offered requests", st.Accepted+st.Rejected)}
	m["serve.retained_kb_per_program"] = Metric{Value: ratio(heapDeltaMB*1024, float64(programs)), Unit: "KiB",
		Base: fmt.Sprintf("live-heap growth %.1f MiB over %d distinct programs", heapDeltaMB, programs)}

	// Registration cost per program is heavy-tailed (valueflow above all),
	// so the base also gives the mean, which is what throughput pays.
	register := func(name, span string) {
		xs := msOf(durationsOf(spans, span))
		p50(name, xs, "ms", fmt.Sprintf("p50 over %d calls; mean %.3f ms", len(xs), mean(xs)))
	}
	register("minijava.compile_ms", "minijava.compile")
	register("analysis.verify_ms", "analysis.verify")
	register("cfg.build_ms", "cfg.build")
	register("valueflow.compute_ms", "valueflow.compute")
	register("analysis.hints_ms", "analysis.hints")
	us := msOf(durationsOf(spans, "core.new_session"))
	for i := range us {
		us[i] *= 1000
	}
	p50("core.new_session_us", us, "us", fmt.Sprintf("p50 over %d calls", len(us)))

	sum, k := sumCounters(samples, countPrefix)
	cbase := fmt.Sprintf("summed response counters of the first %d requests", k)
	count := func(name string, v int64) {
		m[name] = Metric{Value: float64(v), Unit: "count", Samples: k, Base: cbase}
	}
	count("core.traces_built", sum.TracesBuilt)
	count("core.traces_retired", sum.TracesRetired)
	m["core.trace_block_share"] = Metric{Value: ratio(float64(sum.BlocksInTraces), float64(sum.BlockDispatches)), Unit: "ratio",
		Samples: k, Base: fmt.Sprintf("%d blocks in traces / %d block dispatches", sum.BlocksInTraces, sum.BlockDispatches)}
	m["core.completion_rate"] = Metric{Value: ratio(float64(sum.TracesCompleted), float64(sum.TracesEntered)), Unit: "ratio",
		Samples: k, Base: fmt.Sprintf("%d completed / %d entered traces", sum.TracesCompleted, sum.TracesEntered)}
	count("vm.block_dispatches", sum.BlockDispatches)
	count("vm.instrs", sum.Instrs)
	count("profile.signals", sum.Signals)
	count("profile.nodes_created", sum.NodesCreated)
	count("trace.traces_compiled", sum.TracesCompiled)
	count("trace.tier_downs", sum.TierDowns)
	m["trace.compiled_share"] = Metric{Value: ratio(float64(sum.CompiledDispatches), float64(sum.TracesEntered)), Unit: "ratio",
		Samples: k, Base: fmt.Sprintf("%d compiled dispatches / %d traces entered", sum.CompiledDispatches, sum.TracesEntered)}

	var wall, lat float64
	for _, s := range inWindow {
		wall += s.Resp.WallMs
		lat += float64(s.Latency().Nanoseconds()) / 1e6
	}
	m["vm.exec_share"] = Metric{Value: ratio(wall, lat), Unit: "ratio", Samples: len(inWindow),
		Base: fmt.Sprintf("%.0f ms session wall / %.0f ms client latency", wall, lat)}

	var plainNs, t1Ns, t2Ns []float64
	var overNs float64
	var disp int64
	for i, o := range lt.overheads {
		if o.Dispatches > 0 {
			plainNs = append(plainNs, float64(o.PlainWall.Nanoseconds())/float64(o.Dispatches))
		}
		overNs += float64((o.ProfileWall - o.PlainWall).Nanoseconds())
		disp += o.Dispatches
		if t := lt.tiers[i]; t.Tier1NsPerBlock > 0 && t.Tier2NsPerBlock > 0 {
			t1Ns = append(t1Ns, t.Tier1NsPerBlock)
			t2Ns = append(t2Ns, t.Tier2NsPerBlock)
		}
	}
	m["vm.plain_ns_per_block"] = Metric{Value: geomean(plainNs), Unit: "ns", Samples: len(plainNs),
		Base: "geomean over the built-ins of min-of-2 plain run wall / block dispatches"}
	m["profile.hook_ns_per_dispatch"] = Metric{Value: ratio(overNs, float64(disp)), Unit: "ns", Samples: len(lt.overheads),
		Base: fmt.Sprintf("sum of (profile - plain) min-of-2 run wall / %d profiled dispatches", disp)}
	m["trace.tier1_ns_per_trace_block"] = Metric{Value: geomean(t1Ns), Unit: "ns", Samples: len(t1Ns),
		Base: "geomean over the built-ins of harness.MeasureTierThroughput tier 1"}
	m["trace.tier2_ns_per_trace_block"] = Metric{Value: geomean(t2Ns), Unit: "ns", Samples: len(t2Ns),
		Base: "geomean over the built-ins of harness.MeasureTierThroughput tier 2"}
	return m
}
