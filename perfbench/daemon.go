package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// control is the client for the daemon's control and debug endpoints; its
// timeout keeps a wedged daemon from stalling the run.
var control = &http.Client{Timeout: 30 * time.Second}

// Daemon is one running tracevmd process.
type Daemon struct {
	cmd       *exec.Cmd
	Addr      string // public listener, host:port
	DebugAddr string // pprof listener, host:port

	mu     sync.Mutex
	tail   []string // last stderr lines, for error reports
	exited chan struct{}
}

// parseDaemonLine recognizes the listener announcements tracevmd writes to
// stderr at start-up: "tracevmd: serving on ADDR" and
// "tracevmd: pprof on ADDR". kind is "serve" or "pprof".
func parseDaemonLine(line string) (kind, addr string, ok bool) {
	rest, found := strings.CutPrefix(strings.TrimSpace(line), "tracevmd: ")
	if !found {
		return "", "", false
	}
	for _, k := range []struct{ prefix, kind string }{
		{"serving on ", "serve"},
		{"pprof on ", "pprof"},
	} {
		if a, ok := strings.CutPrefix(rest, k.prefix); ok {
			a = strings.TrimSpace(a)
			if a == "" || strings.ContainsAny(a, " \t") {
				return "", "", false
			}
			return k.kind, a, true
		}
	}
	return "", "", false
}

// startDaemon spawns bin with args plus loopback listeners on ephemeral
// ports, and returns once /v1/readyz answers 200. The returned duration
// runs from the spawn to that answer.
func startDaemon(bin string, args []string) (*Daemon, time.Duration, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, args...)
	d := &Daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout = io.Discard
	// The daemon dies with the benchmark, however the benchmark ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	started := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	addrs := make(chan [2]string, 2)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if len(d.tail) == 20 {
				d.tail = d.tail[1:]
			}
			d.tail = append(d.tail, line)
			d.mu.Unlock()
			if kind, addr, ok := parseDaemonLine(line); ok {
				addrs <- [2]string{kind, addr}
			}
		}
		_ = d.cmd.Wait()
		close(d.exited)
	}()

	timeout := time.After(30 * time.Second)
	for d.Addr == "" || d.DebugAddr == "" {
		select {
		case a := <-addrs:
			if a[0] == "serve" {
				d.Addr = a[1]
			} else {
				d.DebugAddr = a[1]
			}
		case <-d.exited:
			return nil, 0, fmt.Errorf("tracevmd exited during start-up: %s", d.stderrTail())
		case <-timeout:
			d.Stop()
			return nil, 0, errors.New("tracevmd announced no listeners within 30s")
		}
	}
	for {
		resp, err := control.Get("http://" + d.Addr + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(started), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("tracevmd exited before ready: %s", d.stderrTail())
		case <-timeout:
			d.Stop()
			return nil, 0, errors.New("tracevmd not ready within 30s")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (d *Daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// Stop drains the daemon with SIGTERM, kills it if it has not exited
// within 15s, and waits for the process to end.
func (d *Daemon) Stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// LiveHeapMB forces a collection in the daemon and returns its HeapAlloc
// in MiB, read from the pprof heap profile's text header.
func (d *Daemon) LiveHeapMB() (float64, error) {
	resp, err := control.Get("http://" + d.DebugAddr + "/debug/pprof/heap?gc=1&debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return parseHeapAlloc(resp.Body)
}

func parseHeapAlloc(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(n) / (1 << 20), nil
		}
	}
	return 0, errors.New("heap profile has no HeapAlloc line")
}

// PeakRSSMB returns the daemon's high-water resident set (VmHWM) in MiB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, err
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in process status")
}

// ServiceStats is the subset of GET /v1/stats the traced run reads.
type ServiceStats struct {
	Accepted       int64
	Rejected       int64
	BreakerDemoted int64
	RegistryHits   int64
	RegistryMisses int64
	EpochMerges    int64
}

func (d *Daemon) Stats() (ServiceStats, error) {
	var s ServiceStats
	resp, err := control.Get("http://" + d.Addr + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}
