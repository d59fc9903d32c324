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
	"syscall"
	"time"
)

// daemon is one cobrad child process.
type daemon struct {
	cmd        *exec.Cmd
	addr       string // the cipher protocol's listen address
	metricsURL string // base URL of /metrics and /debug/vars
	exited     chan struct{}
	waitErr    error
}

// startDaemon execs cobrad with the workload's flags on loopback ports
// it picks itself, and returns once both listeners are up.
func startDaemon(bin string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cobrad: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}

	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "metrics: serving on "):
				d.metricsURL = strings.Fields(line)[3]
			case strings.HasPrefix(line, "cobrad: listening on "):
				d.addr = strings.Fields(line)[3]
				ready <- nil
			}
		}
		// Draining stdout to EOF keeps the daemon's log writes from
		// blocking; Wait may only run once the pipe is read out.
		_, _ = io.Copy(io.Discard, out)
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("cobrad exited before listening: %v", d.waitErr)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("cobrad did not start listening within 30s")
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if the drain hangs.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("cobrad did not drain within 10s; killed")
	}
	return d.waitErr
}

// peakRSSMiB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.metricsURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (metrics, error) {
	b, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(b))
}

// memStats is the part of runtime.MemStats the benchmark reads from
// the daemon's /debug/vars.
type memStats struct {
	TotalAlloc   uint64
	NumGC        uint32
	PauseTotalNs uint64
}

// debugVars reads /debug/vars, keeping the raw document for the trace
// file alongside the decoded memory statistics.
func (d *daemon) debugVars() (json.RawMessage, memStats, error) {
	b, err := d.get("/debug/vars")
	if err != nil {
		return nil, memStats{}, err
	}
	var doc struct {
		MemStats memStats `json:"memstats"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, memStats{}, fmt.Errorf("decode /debug/vars: %w", err)
	}
	return b, doc.MemStats, nil
}
