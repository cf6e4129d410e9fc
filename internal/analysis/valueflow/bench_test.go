package valueflow_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/minijava"
)

// benchPrograms is the number of generated fresh-source programs the
// registration benchmarks run over, after the six built-ins. One op is one
// pass over the whole corpus, so allocs/op and B/op are machine-independent
// work counters for the registration pipeline.
const benchPrograms = 60

// Sinks keep the measured calls' results live.
var (
	sinkFacts *valueflow.Facts
	sinkHints *analysis.Hints
)

// BenchmarkValueFlowCompute times valueflow.Compute alone over the corpus.
func BenchmarkValueFlowCompute(b *testing.B) {
	pcfgs := compileCorpus(b, registrationCorpus(benchPrograms))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pcfgs {
			sinkFacts = valueflow.Compute(p)
		}
	}
}

// BenchmarkRegister times the whole registration pipeline a never-seen
// program goes through before its first dispatch: compile, verify, CFG
// construction, value flow and hints.
func BenchmarkRegister(b *testing.B) {
	progs := registrationCorpus(benchPrograms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			prog, err := minijava.Compile(p.src)
			if err != nil {
				b.Fatalf("%s: compile: %v", p.name, err)
			}
			if rep := analysis.Verify(prog); rep.Reject() {
				b.Fatalf("%s: verifier rejected: %v", p.name, rep.Err())
			}
			pcfg, err := cfg.BuildProgram(prog)
			if err != nil {
				b.Fatalf("%s: cfg: %v", p.name, err)
			}
			sinkHints = analysis.ComputeHintsWithFacts(pcfg, valueflow.Compute(pcfg))
		}
	}
}
