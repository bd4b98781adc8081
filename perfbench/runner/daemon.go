package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one jupiterd process started with addresses and nothing else.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // wire protocol address
	metrics   string // metrics HTTP address
	drainDone chan struct{}
}

// daemonArgv is jupiterd's full command line: both listeners on ephemeral
// loopback ports, every other setting at its default.
func daemonArgv(bin string) []string {
	return []string{bin, "-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0"}
}

// startDaemon execs jupiterd and returns once it accepts a TCP connection.
func startDaemon(bin string) (*daemon, error) {
	argv := daemonArgv(bin)
	d := &daemon{cmd: exec.Command(argv[0], argv[1:]...), drainDone: make(chan struct{})}
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// If the runner dies (a harness timeout), jupiterd must not outlive it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jupiterd: %w", err)
	}
	// A daemon that never announces both addresses is killed, which ends the
	// scan below.
	hung := time.AfterFunc(30*time.Second, func() { _ = d.cmd.Process.Kill() })
	sc := bufio.NewScanner(stderr)
	for (d.addr == "" || d.metrics == "") && sc.Scan() {
		line := sc.Text()
		if _, a, ok := strings.Cut(line, "jupiterd: serving on "); ok {
			d.addr = strings.TrimSpace(a)
		}
		if _, a, ok := strings.Cut(line, "jupiterd: metrics on http://"); ok {
			d.metrics = strings.TrimSuffix(strings.TrimSpace(a), "/")
		}
	}
	hung.Stop()
	go func() {
		defer close(d.drainDone)
		_, _ = io.Copy(io.Discard, stderr)
	}()
	if d.addr == "" || d.metrics == "" {
		d.stop()
		return nil, fmt.Errorf("jupiterd exited before announcing its addresses")
	}
	nc, err := net.DialTimeout("tcp", d.addr, 5*time.Second)
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("connect to jupiterd: %w", err)
	}
	nc.Close()
	return d, nil
}

// stop terminates jupiterd gracefully (SIGTERM), killing it if it lingers,
// and waits until the process and its log reader have ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
	<-d.drainDone
}

// cpu returns jupiterd's CPU time so far: the on-CPU time of all its
// threads from /proc/<pid>/task/*/schedstat. Unlike utime+stime in
// /proc/<pid>/stat, which count 10 ms clock ticks, it is exact to the
// nanosecond, so short phases can be bracketed. Go runtime threads do not
// exit, so no time is lost with a finished thread.
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		data, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		ns, err := parseSchedstat(string(data))
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return total, nil
}

// peakRSS returns jupiterd's peak resident set size (VmHWM) in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), "VmHWM")
	return kb * 1024, err
}

// parseSchedstat extracts the on-CPU time, the first of the three fields of
// a schedstat file.
func parseSchedstat(schedstat string) (time.Duration, error) {
	f := strings.Fields(schedstat)
	if len(f) != 3 {
		return 0, fmt.Errorf("schedstat: %d fields, want 3", len(f))
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return time.Duration(ns), nil
}

// parseStatusKB extracts a "Key:   123 kB" line from /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		num, unit, _ := strings.Cut(strings.TrimSpace(v), " ")
		if unit != "kB" {
			return 0, fmt.Errorf("proc status: %s in %q, want kB", key, unit)
		}
		return strconv.ParseInt(num, 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// serverMetrics is the part of jupiterd's metrics JSON the benchmark reads:
// counters, and histograms as count and sum (their bucketed quantiles read
// up to 2x high, so none are used).
type serverMetrics struct {
	counters map[string]float64
	hists    map[string]histSum
}

type histSum struct {
	Count float64 `json:"count"`
	SumMs float64 `json:"sumMs"`
}

// scrape fetches jupiterd's metrics endpoint.
func (d *daemon) scrape() (serverMetrics, error) {
	m := serverMetrics{counters: map[string]float64{}, hists: map[string]histSum{}}
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get("http://" + d.metrics + "/")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		return m, fmt.Errorf("decode metrics: %w", err)
	}
	for name, v := range raw {
		var n float64
		if json.Unmarshal(v, &n) == nil {
			m.counters[name] = n
			continue
		}
		var h histSum
		if json.Unmarshal(v, &h) == nil && h.Count > 0 {
			m.hists[name] = h
		}
	}
	return m, nil
}
