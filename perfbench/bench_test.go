package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

func bodies(seq []Request) []byte {
	var b bytes.Buffer
	for _, r := range seq {
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSequencesFollowTheSeed(t *testing.T) {
	for _, gen := range []struct {
		name string
		seq  func(seed int64) []Request
	}{
		{"warm", func(seed int64) []Request { return warmSequence("trace-deploy", seed, 100) }},
		{"fresh", func(seed int64) []Request {
			seq, _, err := freshSequence("trace-deploy", seed, 4)
			if err != nil {
				t.Fatal(err)
			}
			return seq
		}},
	} {
		a, b, c := bodies(gen.seq(7)), bodies(gen.seq(7)), bodies(gen.seq(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request sequences", gen.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave the same request sequence", gen.name)
		}
	}
}

func TestWarmBlocksHoldTheMixExactly(t *testing.T) {
	n := blockLen()
	seq := warmSequence("plain", 3, 4*n)
	for b := 0; b < 4; b++ {
		got := make(map[string]int)
		for _, r := range seq[b*n : (b+1)*n] {
			got[r.Program]++
		}
		for _, w := range warmBlock {
			if got[w.Name] != w.Count {
				t.Errorf("block %d: %s appears %d times, want %d", b, w.Name, got[w.Name], w.Count)
			}
		}
	}
}

func TestFreshProgramsAreDistinct(t *testing.T) {
	seq, _, err := freshSequence("trace-deploy", 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range seq {
		if seen[r.Source] {
			t.Fatalf("%s repeats an earlier program", r.Program)
		}
		seen[r.Source] = true
	}
}

func TestPercentileAndGeomean(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.1, 1}, {1, 10}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := beyond(150, 0.9); got != 15 {
		t.Errorf("beyond(150, 0.9) = %d, want 15", got)
	}
	if got := geomean([]float64{1, 10, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := mean([]float64{10, 1, 3, 2}); got != 4 {
		t.Errorf("mean = %v, want 4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []Span{
		{Name: "request", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "session", Parent: 0, Start: ms(10), End: ms(50)},
		{Name: "session", Parent: 0, Start: ms(40), End: ms(60)},  // overlaps the first
		{Name: "session", Parent: 0, Start: ms(90), End: ms(120)}, // clipped to the parent
		{Name: "request", Parent: -1, Start: ms(200), End: ms(230)},
	}
	got := SelfTimes(spans, named("request"))
	want := []time.Duration{40 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("self times = %v, want %v", got, want)
	}

	sp := newSpans()
	p := sp.Add("request", 0, -1, sp.epoch, sp.epoch.Add(80*time.Millisecond))
	sp.AddChildAtEnd("session", p, 30*time.Millisecond)
	sp.AddChildAtEnd("session", p, time.Second) // longer than the parent: clipped
	if got := SelfTimes(sp.list, named("request")); got[0] != 0 {
		t.Errorf("self time with a covering child = %v, want 0", got[0])
	}
}

func TestOracleFlagsTamperedOutput(t *testing.T) {
	want := golden["soot"]
	if msg := check(want, 200, api.RunResponse{Output: want}); msg != "" {
		t.Errorf("correct output flagged: %s", msg)
	}
	tampered := strings.Replace(want, "16442", "16443", 1)
	if msg := check(want, 200, api.RunResponse{Output: tampered}); !strings.Contains(msg, "mismatch") {
		t.Errorf("tampered output not flagged: %q", msg)
	}
	if msg := check(want, 500, api.RunResponse{Output: want}); msg == "" {
		t.Error("non-200 status not flagged")
	}

	seq, _, err := freshSequence("trace-deploy", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if seq[0].Want == "" {
		t.Fatal("reference output not computed")
	}
	if msg := check(seq[0].Want, 200, api.RunResponse{Output: seq[0].Want + "0\n"}); msg == "" {
		t.Error("tampered generated-program output not flagged")
	}
}

func TestParseDaemonLine(t *testing.T) {
	for _, c := range []struct {
		line, kind, addr string
		ok               bool
	}{
		{"tracevmd: serving on 127.0.0.1:37661", "serve", "127.0.0.1:37661", true},
		{"tracevmd: pprof on 127.0.0.1:39265\n", "pprof", "127.0.0.1:39265", true},
		{"tracevmd: serving on [::1]:8077", "serve", "[::1]:8077", true},
		{"tracevmd: recorded 3 requests to x.trlog", "", "", false},
		{"tracevmd: serving on ", "", "", false},
		{"serving on 127.0.0.1:1", "", "", false},
	} {
		kind, addr, ok := parseDaemonLine(c.line)
		if kind != c.kind || addr != c.addr || ok != c.ok {
			t.Errorf("parseDaemonLine(%q) = %q, %q, %v; want %q, %q, %v", c.line, kind, addr, ok, c.kind, c.addr, c.ok)
		}
	}
}

func TestParseHeapAlloc(t *testing.T) {
	prof := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 1\n# HeapAlloc = 3145728\n# Sys = 9\n"
	got, err := parseHeapAlloc(strings.NewReader(prof))
	if err != nil || got != 3 {
		t.Errorf("parseHeapAlloc = %v, %v; want 3 MiB", got, err)
	}
	if _, err := parseHeapAlloc(strings.NewReader("# Alloc = 1\n")); err == nil {
		t.Error("a profile without HeapAlloc parsed")
	}
}

func TestResultsFromDifferentMachinesAreRefused(t *testing.T) {
	a := Result{Machine: stampMachine()}
	b := a
	if err := comparable(a, b); err != nil {
		t.Errorf("same machine refused: %v", err)
	}
	b.Machine.Cores++
	if err := comparable(a, b); err == nil {
		t.Error("results from different machines compared")
	}
}

func TestLongGeneratedProgramsAreMarked(t *testing.T) {
	seq, _, err := freshSequence("trace-deploy", 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A budget below every program's length marks them all; a generous one
	// marks none and fills every reference.
	long, err := fillReferences(seq, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range long {
		if !l {
			t.Errorf("program %d not marked long at a 10-instruction budget", i)
		}
	}
	long, err = fillReferences(seq, freshMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range long {
		if l || seq[i].Want == "" {
			t.Errorf("program %d: long=%v, reference %q", i, l, seq[i].Want)
		}
	}
}

func TestLoopChecksEveryReplyAndProbesOnce(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req api.RunRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		out := golden[req.Workload]
		if req.Workload == "raytrace" {
			out = "tampered\n"
		}
		_ = json.NewEncoder(w).Encode(api.RunResponse{Output: out, WallMs: 1})
	}))
	defer srv.Close()

	seq := warmSequence("plain", 1, 2*blockLen())
	c := newClient(strings.TrimPrefix(srv.URL, "http://"), 2)
	defer c.Close()
	probes := 0
	samples, exhausted := c.Loop(seq, time.Time{}, 7, func() { probes++ })
	if exhausted || len(samples) != len(seq) || probes != 1 {
		t.Fatalf("exhausted=%v samples=%d probes=%d; want false, %d, 1", exhausted, len(samples), probes, len(seq))
	}
	for _, s := range samples {
		if bad := seq[s.Index].Program == "raytrace"; bad == s.OK() {
			t.Errorf("request %d (%s): ok=%v, err=%q", s.Index, seq[s.Index].Program, s.OK(), s.Err)
		}
	}
}
