package valueflow_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/valueflow"
	"repro/internal/cfg"
	"repro/internal/minijava"
	"repro/internal/progen"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/facts.digest from the current analysis")

const digestPath = "testdata/facts.digest"

// digestPrograms is the number of generated programs the golden digest
// covers: the first programs of the benchmark's fresh-source stream.
const digestPrograms = 200

// corpusProgram is one named MiniJava source.
type corpusProgram struct {
	name string
	src  string
}

// registrationCorpus returns the six built-in workloads followed by the
// first n generated programs of the fresh-source stream for seed 1
// (generator seed 1<<24|i, default configuration).
func registrationCorpus(n int) []corpusProgram {
	var out []corpusProgram
	for _, w := range workload.All() {
		out = append(out, corpusProgram{name: w.Name, src: w.Source})
	}
	for i := 0; i < n; i++ {
		out = append(out, corpusProgram{
			name: fmt.Sprintf("gen-1-%d", i),
			src:  progen.Generate(1<<24|int64(i), progen.Config{}),
		})
	}
	return out
}

// compileCorpus compiles every program and builds its CFGs.
func compileCorpus(tb testing.TB, progs []corpusProgram) []*cfg.ProgramCFG {
	tb.Helper()
	out := make([]*cfg.ProgramCFG, len(progs))
	for i, p := range progs {
		prog, err := minijava.Compile(p.src)
		if err != nil {
			tb.Fatalf("%s: compile: %v", p.name, err)
		}
		if out[i], err = cfg.BuildProgram(prog); err != nil {
			tb.Fatalf("%s: cfg: %v", p.name, err)
		}
	}
	return out
}

// factsDigest hashes everything a fact table claims: Top, Stats, every
// block's facts in block order, and every block's invariant locals.
func factsDigest(p *cfg.ProgramCFG, f *valueflow.Facts) string {
	h := sha256.New()
	put := func(vs ...int64) {
		var buf [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	bit := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	put(bit(f.Top()))
	fmt.Fprintf(h, "%+v\n", f.Stats())
	for id := 0; id < p.NumBlocks(); id++ {
		bf := f.Block(cfg.BlockID(id))
		put(int64(id), bit(bf.Reachable), int64(bf.Decided))
		put(int64(len(bf.IntConsts)))
		for _, c := range bf.IntConsts {
			put(int64(c.Slot), c.Val)
		}
		put(int64(len(bf.FloatConsts)))
		for _, c := range bf.FloatConsts {
			put(int64(c.Slot), int64(c.Bits))
		}
		put(int64(len(bf.NonNull)))
		for _, s := range bf.NonNull {
			put(int64(s))
		}
		put(int64(len(bf.StackConsts)))
		for _, c := range bf.StackConsts {
			put(int64(c.Idx), c.Val)
		}
		inv := f.InvariantLocals(cfg.BlockID(id))
		put(int64(len(inv)))
		for _, s := range inv {
			put(int64(s))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFactsDigest pins the fact tables of the built-in workloads and the
// first generated fresh-source programs bit for bit. Any change to the
// analysis that alters a single claim shows up here; a change that should
// alter claims regenerates the file with `go test -run TestFactsDigest
// -update ./internal/analysis/valueflow`.
func TestFactsDigest(t *testing.T) {
	progs := registrationCorpus(digestPrograms)
	pcfgs := compileCorpus(t, progs)
	var got strings.Builder
	for i, p := range progs {
		fmt.Fprintf(&got, "%s %s\n", p.name, factsDigest(pcfgs[i], valueflow.Compute(pcfgs[i])))
	}
	if *update {
		if err := os.WriteFile(digestPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readDigests(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(want) {
		t.Fatalf("%d digests, golden file has %d", len(gotLines), len(want))
	}
	bad := 0
	for i, line := range gotLines {
		if line != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("facts changed: got %q, want %q", line, want[i])
			}
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d fact tables differ from %s", bad, len(want), filepath.Base(digestPath))
	}
}

func readDigests(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, sc.Err()
}
