package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// Machine identifies the box a result was taken on. Two results are
// comparable only when their stamps are equal: a baseline is never
// compared across machines.
type Machine struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
}

func stampMachine() Machine {
	return Machine{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		GoVersion:  runtime.Version(),
	}
}

func (m Machine) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d cpu=%q kernel=%s go=%s",
		m.Cores, m.GOMAXPROCS, m.CPU, m.Kernel, m.GoVersion)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// cpuTicks reads the aggregate CPU line of /proc/stat: total ticks and
// the hypervisor's steal ticks.
func cpuTicks() [2]int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var t [2]int64
	for i := 1; i < len(f) && i <= 8; i++ { // guest time is already in user
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t[0] += v
		if i == 8 {
			t[1] = v
		}
	}
	return t
}

// stealPct is the share of CPU ticks since t0 the hypervisor stole.
func stealPct(t0 [2]int64) float64 {
	t1 := cpuTicks()
	return 100 * ratio(float64(t1[1]-t0[1]), float64(t1[0]-t0[0]))
}

// Metric is one reported figure with its unit and the number of samples
// it summarizes.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	// Base describes the denominator or sample set of a ratio or count.
	Base string `json:"base,omitempty"`
}

// Result is one run's record, kept under the output directory so later
// runs can print ratios against it.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Machine   Machine           `json:"machine"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func resultPath(outDir, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

func saveResult(outDir string, r Result) error {
	p := resultPath(outDir, r.Workload, r.Seed, r.Trace)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(p, b, 0o644)
}

func loadResult(path string) (Result, error) {
	var r Result
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	err = json.Unmarshal(b, &r)
	return r, err
}

// comparable refuses a pair of results from different machines.
func comparable(a, b Result) error {
	if a.Machine != b.Machine {
		return fmt.Errorf("results come from different machines:\n  %s\n  %s", a.Machine, b.Machine)
	}
	return nil
}

// peer loads the stored untraced result of a workload for the same seed,
// if one exists and was taken on this machine.
func peer(outDir string, self Result, workload string) (Result, string) {
	r, err := loadResult(resultPath(outDir, workload, self.Seed, false))
	if err != nil {
		return r, "no stored result"
	}
	if err := comparable(self, r); err != nil {
		return r, "stored result is from another machine"
	}
	if r.Seconds != self.Seconds {
		return r, "stored result used another run length"
	}
	return r, ""
}
