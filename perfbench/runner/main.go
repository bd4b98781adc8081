// Command runner is the end-to-end half of the jupiterd benchmark. It starts
// jupiterd as its own process with addresses and nothing else set, drives it
// through internal/client with one seeded workload, checks that every
// replica converged, and prints each metric with its unit and sample count.
// The last line of its output is the result as one JSON object.
//
// With -trace 1 it reports per-layer metrics instead: spans recorded around
// its own calls into the client, jupiterd's counters, and a replay of the
// captured serializations through css and wire by the replay program.
//
// Run it through perfbench/run.sh, which builds jupiterd, this program and
// the replay program from the checkout first.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRuns is how many times the set-up runs; setup_s is the median.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	jupiterd string
	replay   string
	out      string
	root     string
	commit   string
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var opt options
	var trace int
	fset := flag.NewFlagSet("runner", flag.ContinueOnError)
	fset.StringVar(&opt.workload, "workload", "", "workload to run")
	fset.Int64Var(&opt.seed, "seed", 1, "seed of the workload's script")
	fset.IntVar(&opt.seconds, "seconds", 10, "how long to measure")
	fset.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fset.StringVar(&opt.jupiterd, "jupiterd", "", "jupiterd binary")
	fset.StringVar(&opt.replay, "replay", "", "replay binary (traced runs)")
	fset.StringVar(&opt.out, "out", "", "directory for trace files")
	fset.StringVar(&opt.root, "root", ".", "root of the checkout (for the source digest)")
	fset.StringVar(&opt.commit, "commit", "none", "commit of the checkout, if known")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil || opt.jupiterd == "" || opt.seconds < 1 || (opt.trace && opt.replay == "") {
		fmt.Fprintln(os.Stderr, "runner: need -workload sessions|paste|long-doc, -jupiterd, -seconds >= 1, and -replay when tracing")
		return 2
	}
	runtime.GOMAXPROCS(1)

	b := newBench(opt)
	b.openLoop = wl.openLoop
	// Set-up: start jupiterd and run one unmeasured unit on it, setupRuns
	// times, so caches and heaps are warm; then measure on a fresh jupiterd.
	var setups []float64
	for i := 1; i <= setupRuns; i++ {
		b.retire()
		t0 := time.Now()
		if err := b.restart(); err != nil {
			fmt.Fprintln(os.Stderr, "runner:", err)
			return 1
		}
		wl.warm(b, -i)
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := b.restart(); err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		return 1
	}
	b.endWarmUp()
	b.deadline = time.Now().Add(time.Duration(opt.seconds) * time.Second)
	for i := 0; b.d != nil && (i == 0 || time.Now().Before(b.deadline)); i++ {
		wl.unit(b, i)
	}
	b.retire()
	b.checkCounters()

	rec := runRecord(opt, wl)
	var metrics []metric
	if opt.trace {
		metrics = b.layerMetrics()
	} else {
		metrics = b.endToEnd(median(setups), len(setups))
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			b.fail(1, "metric %s has no samples", m.name)
		}
	}
	recJSON, _ := json.Marshal(rec)
	fmt.Printf("run %s\n", recJSON)
	fmt.Printf("host probe_us %.1f n=%d (reference %.0f)\n", b.probeMedian(), len(b.probes), b.refProbeUs())
	for _, m := range metrics {
		fmt.Printf("metric %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, f := range b.failures {
		fmt.Printf("failure %s\n", f)
	}
	correct := b.failed == 0
	res := map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   resultMetrics(metrics),
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

func resultMetrics(metrics []metric) map[string]any {
	out := make(map[string]any, len(metrics))
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	return out
}

// endToEnd computes the metrics a user of jupiterd sees: medians over the
// run's units, except opens (pooled) and set-up. Every time but set-up is
// scaled to the reference host (hostspeed.go).
func (b *bench) endToEnd(setup float64, setupN int) []metric {
	units := b.scaledUnits()
	med := func(f func(u unitStats) float64) float64 { return unitMedian(units, f) }
	opens := make([]float64, len(b.opens))
	for i, o := range b.opens {
		opens[i] = o * b.hostScale(b.openAt[i])
	}
	n := len(b.ops)
	return []metric{
		{"setup_s", "s", setup, setupN},
		{"ack_p50_ms", "ms", med(func(u unitStats) float64 { return u.ack50 }), n},
		{"ack_p90_ms", "ms", med(func(u unitStats) float64 { return u.ack90 }), n},
		{"visible_p50_ms", "ms", med(func(u unitStats) float64 { return u.vis50 }), n},
		{"visible_p90_ms", "ms", med(func(u unitStats) float64 { return u.vis90 }), n},
		{"open_p50_ms", "ms", median(opens), len(opens)},
		{"ops_per_s", "1/s", med(func(u unitStats) float64 { return u.opsPerS }), n},
		{"server_cpu_us_per_op", "us", med(func(u unitStats) float64 { return u.srvUs }), n},
		{"client_cpu_us_per_op", "us", med(func(u unitStats) float64 { return u.cliUs }), n},
		{"server_rss_mb", "MB", median(b.rss), len(b.rss)},
	}
}

// unitMedian is the median of f over units.
func unitMedian(units []unitStats, f func(u unitStats) float64) float64 {
	xs := make([]float64, len(units))
	for i, u := range units {
		xs[i] = f(u)
	}
	return median(xs)
}

// layerMetrics computes the per-layer metrics of a traced run: those the
// run itself observed, then those of the replay.
func (b *bench) layerMetrics() []metric {
	out := b.observedLayers()
	capture, err := b.writeTrace(filepath.Join(b.opt.out, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed)))
	if err != nil {
		b.fail(1, "trace: %v", err)
		return out
	}
	rr, err := runReplay(b.opt.replay, capture)
	if err != nil {
		b.fail(1, "%v", err)
		return out
	}
	for _, e := range rr.Errors {
		b.fail(1, "replay: %s", e)
	}
	for _, l := range replayLayers {
		out = append(out, metric{l.name, l.unit, rr.Metrics[l.name], int(rr.Metrics["ops"])})
	}
	return out
}

// observedLayers are the per-layer metrics from the run's own spans, its
// generator and jupiterd's counters.
func (b *bench) observedLayers() []metric {
	var gen, tracedAck, plainAck []float64
	for _, s := range b.ops {
		a := ms(s.ack.Sub(s.due))
		if s.traced {
			gen = append(gen, float64(s.genEnd.Sub(s.genStart))/float64(time.Microsecond))
			tracedAck = append(tracedAck, a)
		} else {
			plainAck = append(plainAck, a)
		}
	}
	late := 0
	for _, l := range b.lates {
		if l > 1 {
			late++
		}
	}
	lateFrac := 0.0
	if len(b.lates) > 0 {
		lateFrac = float64(late) / float64(len(b.lates))
	}
	c, h := b.srv.counters, b.srv.hists
	histMeanUs := func(name string) float64 { return h[name].SumMs * 1000 / h[name].Count }
	untraced := median(plainAck)
	return []metric{
		{"client.generate_us", "us", mean(gen), len(gen)},
		{"gen.late_frac", "ratio", lateFrac, len(b.lates)},
		{"server.apply_us_mean", "us", histMeanUs("apply_latency"), int(h["apply_latency"].Count)},
		{"server.queue_wait_us_mean", "us", histMeanUs("apply_queue_wait"), int(h["apply_queue_wait"].Count)},
		{"server.frames_out_per_op", "ratio", c["frames_out"] / c["ops_applied"], int(c["ops_applied"])},
		{"server.cpu_ms_per_open", "ms", float64(b.openCPU) / float64(time.Millisecond) / float64(len(b.opens)), len(b.opens)},
		{"server.snapshot_bytes_per_join", "bytes", c["snapshot_bytes_total"] / c["joins_total"], int(c["joins_total"])},
		{"trace.overhead_pct", "%", (median(tracedAck) - untraced) / untraced * 100, len(tracedAck)},
		{"host.probe_us", "us", b.probeMedian(), len(b.probes)},
		{"server.cpu_us_per_op_unscaled", "us", unitMedian(b.units, func(u unitStats) float64 { return u.srvUs }), len(b.ops)},
		{"client.cpu_us_per_op_unscaled", "us", unitMedian(b.units, func(u unitStats) float64 { return u.cliUs }), len(b.ops)},
	}
}

// replayLayers are the per-layer metrics the replay program measures.
var replayLayers = []struct{ name, unit string }{
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.bytes_per_op", "bytes"},
	{"wire.snapshot_bytes", "bytes"},
	{"css.server_receive_us", "us"},
	{"css.client_receive_us", "us"},
	{"css.server_receive_growth", "ratio"},
	{"css.snapshot_us", "us"},
	{"css.join_ms", "ms"},
	{"statespace.server_states", "count"},
	{"statespace.client_states", "count"},
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runRecord is what a result needs to be reproduced and compared.
func runRecord(opt options, wl *workload) map[string]any {
	return map[string]any{
		"workload":      opt.workload,
		"why":           wl.why,
		"seed":          opt.seed,
		"seconds":       opt.seconds,
		"trace":         opt.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    map[string]int{"runner": runtime.GOMAXPROCS(0), "jupiterd": 1, "replay": 1},
		"go":            runtime.Version(),
		"commit":        opt.commit,
		"source_sha256": sourceDigest(opt.root),
		"jupiterd_argv": append([]string{"jupiterd"}, daemonArgv("")[1:]...),
	}
}

// sourceDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even where no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
