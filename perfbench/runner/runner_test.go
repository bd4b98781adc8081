package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"jupiter/internal/core"
	"jupiter/internal/list"
	"jupiter/internal/opid"
	"jupiter/internal/ot"
)

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("1234567 89 3\n")
	if err != nil || got != 1234567*time.Nanosecond {
		t.Fatalf("parseSchedstat = %v, %v; want 1.234567ms", got, err)
	}
	for _, bad := range []string{"", "1 2", "x 2 3", "1 2 3 4"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
	data, err := os.ReadFile("/proc/self/schedstat")
	if err != nil {
		t.Skip("no schedstat on this kernel:", err)
	}
	if ns, err := parseSchedstat(string(data)); err != nil || ns <= 0 {
		t.Errorf("live schedstat %q: %v, %v", data, ns, err)
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tjupiterd\nVmPeak:\t  812345 kB\nVmHWM:\t   20480 kB\nThreads:\t7\n"
	got, err := parseStatusKB(status, "VmHWM")
	if err != nil || got != 20480 {
		t.Fatalf("VmHWM = %d, %v; want 20480", got, err)
	}
	if _, err := parseStatusKB(status, "VmRSS"); err == nil {
		t.Error("missing key accepted")
	}
	if _, err := parseStatusKB("VmHWM:\t12 MB\n", "VmHWM"); err == nil {
		t.Error("unit other than kB accepted")
	}
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skip("no /proc:", err)
	}
	if kb, err := parseStatusKB(string(data), "VmHWM"); err != nil || kb <= 0 {
		t.Errorf("live VmHWM: %d, %v", kb, err)
	}
}

// TestProbe checks that both parts of the host probe take measurable CPU
// time and allocate nothing, so a heavier runner heap cannot slow them
// through GC, and that a unit's scale is the reference over the median
// probe around it.
func TestProbe(t *testing.T) {
	b := newBench(options{})
	for name, f := range map[string]func() float64{"compute": b.computeUs, "wake": b.wakeUs} {
		if us := f(); us <= 0 || math.IsNaN(us) {
			t.Errorf("%s probe = %v µs, want > 0", name, us)
		}
		if a := testing.AllocsPerRun(3, func() { f() }); a != 0 {
			t.Errorf("%s probe allocates %v times per run", name, a)
		}
	}
	if len(b.failures) > 0 {
		t.Errorf("probe failed the run: %v", b.failures)
	}
	b.probes = []float64{1000, 5000, 2500, 1250, 2500, 9000, 2500}
	for i, want := range map[int]float64{0: 1, 3: 1, 6: 1, 9: 1} {
		if got := b.hostScale(i) * 2500 / refComputeUs; math.Abs(got-want) > 1e-9 {
			t.Errorf("hostScale(%d) = %v, want %v", i, got, want)
		}
	}
	b.probes = []float64{5000}
	if got := b.hostScale(0); got != refComputeUs/5000 {
		t.Errorf("hostScale on a slow host = %v, want %v", got, refComputeUs/5000)
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{5}, 0.9, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0.9, 91},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 0, 10},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 1, 100},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// metricName and metricUnit are the charsets and lengths the result format
// allows for names (of metrics and workloads) and units.
var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the part of BENCHMARK.json the runner must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricNames checks every reported name and unit against the result
// format's charset, and BENCHMARK.json against what the runner reports.
func TestMetricNames(t *testing.T) {
	b := newBench(options{})
	e2e := b.endToEnd(1, 1)
	layers := b.observedLayers()
	for _, l := range replayLayers {
		layers = append(layers, metric{name: l.name, unit: l.unit})
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), e2e...), layers...) {
		if !metricName.MatchString(m.name) || !metricUnit.MatchString(m.unit) {
			t.Errorf("metric %q unit %q outside the charset", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %q reported twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}

	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	pairs := func(ms []metric) [][2]string {
		var out [][2]string
		for _, m := range ms {
			out = append(out, [2]string{m.name, m.unit})
		}
		return out
	}
	var gotE2E, gotLayers [][2]string
	for _, m := range bj.EndToEnd {
		gotE2E = append(gotE2E, [2]string{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		gotLayers = append(gotLayers, [2]string{m.Name, m.Unit})
	}
	if want := pairs(e2e); !reflect.DeepEqual(gotE2E, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nrunner reports %v", gotE2E, want)
	}
	if want := pairs(layers); !reflect.DeepEqual(gotLayers, want) {
		t.Errorf("BENCHMARK.json per_layer = %v\nrunner reports %v", gotLayers, want)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, runner %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q (or their whys differ)", i, bj.Workloads[i].Name, w.name)
		}
	}
}

// history records two reads of the same visible op returning the given lists.
func history(a, b string) *core.History {
	id := opid.OpID{Client: 1, Seq: 1}
	ins := ot.Ins('x', 0, id)
	vis := opid.NewSet(id)
	elems := func(s string) []list.Elem {
		var out []list.Elem
		for i, r := range s {
			out = append(out, list.Elem{Val: r, ID: opid.OpID{Client: 1, Seq: uint64(i + 1)}})
		}
		return out
	}
	h := &core.History{}
	h.Append("c1", ins, elems("x"), opid.NewSet())
	h.Append("c1", ot.Read(opid.OpID{Client: -1001, Seq: 1}), elems(a), vis)
	h.Append("c2", ot.Read(opid.OpID{Client: -1002, Seq: 1}), elems(b), vis)
	return h
}

// TestGate is the negative control: a diverged replica, or a history that
// breaks the list specification, fails every op of its document.
func TestGate(t *testing.T) {
	d := &docRun{name: "doc", order: make([]*opSample, 3)}
	b := newBench(options{})
	if !b.gate(d, [2]string{"x", "x"}) || b.failed != 0 {
		t.Fatalf("converged document failed the gate: %v", b.failures)
	}
	if b.gate(d, [2]string{"xy", "yx"}) || b.failed != 3 {
		t.Errorf("diverged replicas passed the gate (failed = %d)", b.failed)
	}

	b = newBench(options{})
	d.hist = history("x", "x")
	if !b.gate(d, [2]string{"x", "x"}) {
		t.Fatalf("valid history failed the gate: %v", b.failures)
	}
	d.hist = history("x", "")
	if b.gate(d, [2]string{"x", "x"}) || b.failed != 3 {
		t.Errorf("history with diverged reads passed the gate (failed = %d)", b.failed)
	}
}
