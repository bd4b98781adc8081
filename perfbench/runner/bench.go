package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"

	"jupiter/internal/client"
	"jupiter/internal/core"
	"jupiter/internal/css"
	"jupiter/internal/opid"
	"jupiter/internal/spec"
	"jupiter/internal/wire"
)

// convergeTimeout bounds how long one document may take to drain.
const convergeTimeout = 60 * time.Second

// opSample is one generated operation's timeline.
type opSample struct {
	due      time.Time // intended send time (open loop) or generate start (closed loop)
	genStart time.Time
	genEnd   time.Time
	ack      time.Time // the originating client saw its ack
	vis      time.Time // the other writer applied the op
	traced   bool
	span     int // the op's span id (traced ops)
}

// docRun is one document of a workload, edited by a pair of writers. Its
// operations are keyed by OpID inside the document: client ids are minted
// per document, so op ids only identify an op together with the document.
type docRun struct {
	name    string
	mu      sync.Mutex
	ops     map[opid.OpID]*opSample
	order   []*opSample // in generation order
	capture bool        // keep the broadcasts for the replay (traced runs)
	bcasts  []css.ServerMsg
	hist    *core.History // recorded history, for sampled documents
	text    string        // converged text
}

// sample returns the timeline of op id, creating it if the ack or the
// broadcast arrived before the generator registered the op.
func (d *docRun) sample(id opid.OpID) *opSample {
	s, ok := d.ops[id]
	if !ok {
		s = &opSample{}
		d.ops[id] = s
	}
	return s
}

func (d *docRun) onAck(id opid.OpID) {
	now := time.Now()
	d.mu.Lock()
	d.sample(id).ack = now
	d.mu.Unlock()
}

func (d *docRun) onFrame(f *wire.Server) {
	if f.Msg.Kind != css.MsgBroadcast {
		return
	}
	now := time.Now()
	d.mu.Lock()
	d.sample(f.Msg.Op.ID).vis = now
	if d.capture {
		d.bcasts = append(d.bcasts, f.Msg)
	}
	d.mu.Unlock()
}

// pair is two writers on one document.
type pair struct {
	doc    *docRun
	cl     [2]*client.Client
	traced bool // traced runs trace every other document (long-doc: round)
}

// edit is one scripted operation. Positions are relative (u in [0,1) of the
// writer's current document) unless at >= 0 names the position outright.
type edit struct {
	del bool
	u   float64
	at  int
	ch  rune
}

// randomEdit draws a typing edit: mostly inserts, some deletes.
func randomEdit(rng *rand.Rand, delFrac float64) edit {
	return edit{
		del: rng.Float64() < delFrac,
		u:   rng.Float64(),
		at:  -1,
		ch:  rune('a' + rng.Intn(26)),
	}
}

// bench holds one run's daemon, samples and verdicts.
type bench struct {
	opt      options
	d        *daemon
	deadline time.Time

	ops      []*opSample
	units    []unitStats
	opens    []float64 // ms
	openAt   []int     // each open's probe index (hostScale)
	lates    []float64 // ms, open loop only
	openLoop bool
	openCPU  time.Duration // jupiterd CPU across opens
	probes   []float64     // µs, one host probe per unit (hostspeed.go)
	rss      []float64     // MB, one per daemon that served the workload
	srv      serverMetrics // summed over those daemons

	attempted int
	failed    int
	failures  []string

	captured    []*docRun
	capturedOps int
	spans       []span
	docs        int
}

func newBench(opt options) *bench {
	return &bench{opt: opt, srv: serverMetrics{counters: map[string]float64{}, hists: map[string]histSum{}}}
}

// fail records n failed operations and why.
func (b *bench) fail(n int, format string, args ...any) {
	b.failed += n
	msg := fmt.Sprintf(format, args...)
	if len(b.failures) < 20 {
		b.failures = append(b.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "runner: FAIL:", msg)
}

// retire scrapes and stops the current daemon.
func (b *bench) retire() {
	if b.d == nil {
		return
	}
	d := b.d
	b.d = nil
	if rss, err := d.peakRSS(); err != nil {
		b.fail(1, "jupiterd rss: %v", err)
	} else {
		b.rss = append(b.rss, float64(rss)/(1<<20))
	}
	if m, err := d.scrape(); err != nil {
		b.fail(1, "jupiterd metrics: %v", err)
	} else {
		for k, v := range m.counters {
			b.srv.counters[k] += v
		}
		for k, h := range m.hists {
			s := b.srv.hists[k]
			s.Count += h.Count
			s.SumMs += h.SumMs
			b.srv.hists[k] = s
		}
	}
	d.stop()
}

// failCounters are jupiterd counters that must stay zero; each count is a
// failed op.
var failCounters = []string{
	"protocol_errors_total",
	"backpressure_disconnects_total",
	"op_gap_disconnects_total",
	"rejects_total",
}

// checkCounters fails the run for every count on a failure counter of the
// jupiterd processes retired so far.
func (b *bench) checkCounters() {
	for _, c := range failCounters {
		if v := b.srv.counters[c]; v > 0 {
			b.fail(int(v), "jupiterd %s = %v", c, v)
		}
	}
}

// endWarmUp closes the set-up: the warm-up daemons' failure counters are
// checked, and every sample and counter the warm-up recorded is dropped.
// Failures stay.
func (b *bench) endWarmUp() {
	b.checkCounters()
	b.srv = serverMetrics{counters: map[string]float64{}, hists: map[string]histSum{}}
	b.rss = nil
	b.ops, b.units, b.opens, b.openAt, b.lates, b.probes = nil, nil, nil, nil, nil, nil
	b.openCPU = 0
	b.captured, b.capturedOps, b.spans, b.docs = nil, 0, nil, 0
}

// restart replaces the current daemon with a fresh one; on failure no
// daemon is left.
func (b *bench) restart() error {
	b.retire()
	d, err := startDaemon(b.opt.jupiterd)
	if err != nil {
		return err
	}
	b.d = d
	return nil
}

// serverCPU reads the current daemon's CPU time; a failed read fails the run.
func (b *bench) serverCPU() time.Duration {
	t, err := b.d.cpu()
	if err != nil {
		b.fail(1, "jupiterd cpu: %v", err)
	}
	return t
}

// selfCPU is this process's user+system CPU time; a failed read fails the
// run.
func (b *bench) selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.fail(1, "runner cpu: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase brackets one unit's measured work (opens excluded).
type phase struct {
	t0         time.Time
	srv0, cli0 time.Duration
}

func (b *bench) beginPhase() phase {
	return phase{t0: time.Now(), srv0: b.serverCPU(), cli0: b.selfCPU()}
}

// unitStats are one unit's end-to-end figures as measured. A run reports
// the median over its units, each scaled to the reference host
// (scaledUnits), so a unit that a host hiccup slowed does not move the
// result.
type unitStats struct {
	ack50, ack90, vis50, vis90 float64 // ms
	opsPerS                    float64 // ops ÷ wall time (the open loop reports a CPU rate instead)
	srvUs, cliUs               float64 // CPU per op
	probe                      int     // the host probe taken right after the unit
}

// endPhase closes a unit whose document converged.
func (b *bench) endPhase(p phase, d *docRun) {
	wall := time.Since(p.t0)
	srv := b.serverCPU() - p.srv0
	cli := b.selfCPU() - p.cli0
	var ack, vis []float64
	for _, s := range d.order {
		ack = append(ack, ms(s.ack.Sub(s.due)))
		vis = append(vis, ms(s.vis.Sub(s.due)))
	}
	n := float64(len(d.order))
	u := unitStats{
		ack50:   percentile(ack, 0.5),
		ack90:   percentile(ack, 0.9),
		vis50:   percentile(vis, 0.5),
		vis90:   percentile(vis, 0.9),
		opsPerS: n / wall.Seconds(),
		srvUs:   float64(srv) / float64(time.Microsecond) / n,
		cliUs:   float64(cli) / float64(time.Microsecond) / n,
		probe:   len(b.probes),
	}
	b.probeHost()
	b.units = append(b.units, u)
}

// scaledUnits returns the run's units with every time scaled to the
// reference host.
func (b *bench) scaledUnits() []unitStats {
	out := make([]unitStats, len(b.units))
	for i, u := range b.units {
		s := b.hostScale(u.probe)
		u.ack50, u.ack90, u.vis50, u.vis90 = u.ack50*s, u.ack90*s, u.vis50*s, u.vis90*s
		u.srvUs, u.cliUs = u.srvUs*s, u.cliUs*s
		u.opsPerS /= s
		if b.openLoop {
			// An open loop's wall-clock rate only repeats the offered rate;
			// its ops_per_s is what the two processes' CPU per op sustains.
			u.opsPerS = 1e6 / (u.srvUs + u.cliUs)
		}
		out[i] = u
	}
	return out
}

// dial opens one client on doc; nil on failure. Counted opens feed
// open_p50_ms and the server CPU per open.
func (b *bench) dial(doc string, d *docRun, rec core.Recorder, counted bool) *client.Client {
	b.attempted++
	cfg := client.Config{Addr: b.d.addr, Doc: doc}
	if d != nil {
		cfg.OnAck = func(id opid.OpID, _ uint64) { d.onAck(id) }
		cfg.OnServerFrame = d.onFrame
		cfg.Recorder = rec
	}
	cpu0 := b.serverCPU()
	t0 := time.Now()
	cl, err := client.Dial(cfg)
	t1 := time.Now()
	cpu := b.serverCPU() - cpu0
	if err != nil {
		b.fail(1, "dial %s: %v", doc, err)
		return nil
	}
	if counted {
		b.opens = append(b.opens, ms(t1.Sub(t0)))
		b.openAt = append(b.openAt, len(b.probes))
		b.openCPU += cpu
		b.span("client.open", t0, t1, 0)
	}
	return cl
}

// openPair dials two writers onto a fresh document. sampled documents
// record their history for the weak list spec check; counted says whether
// the dials are the workload's opens.
func (b *bench) openPair(name string, sampled, counted bool) *pair {
	d := &docRun{name: name, ops: map[opid.OpID]*opSample{}}
	d.capture = b.opt.trace && len(b.captured) < maxCaptureDocs && b.capturedOps < maxCaptureOps
	var rec core.Recorder
	if sampled {
		d.hist = &core.History{}
		rec = &core.LockedRecorder{R: d.hist}
	}
	p := &pair{doc: d, traced: b.opt.trace && b.docs%2 == 0}
	for i := range p.cl {
		if p.cl[i] = b.dial(name, d, rec, counted); p.cl[i] == nil {
			p.close()
			return nil
		}
	}
	b.docs++
	return p
}

func (p *pair) close() {
	for _, cl := range p.cl {
		if cl != nil {
			cl.Close()
		}
	}
}

// generate runs one scripted edit on writer w. due is the intended send
// time for open loops; closed loops pass the zero time.
func (b *bench) generate(p *pair, w int, e edit, due time.Time) {
	b.attempted++
	cl := p.cl[w]
	t0 := time.Now()
	var id opid.OpID
	var err error
	n := cl.DocLen()
	// Positions stay below the current length (or 0), so a remote delete
	// landing between DocLen and the edit cannot push them out of range.
	pos := int(e.u * float64(n))
	if e.at >= 0 {
		pos = e.at
	}
	if e.del && n > 0 {
		id, err = cl.DeleteID(pos)
	} else {
		id, err = cl.InsertID(e.ch, pos)
	}
	t1 := time.Now()
	if err != nil {
		b.fail(1, "%s: generate on writer %d: %v", p.doc.name, w, err)
		return
	}
	if due.IsZero() {
		due = t0
	}
	d := p.doc
	d.mu.Lock()
	s := d.sample(id)
	s.due, s.genStart, s.genEnd = due, t0, t1
	s.traced = p.traced
	d.order = append(d.order, s)
	d.mu.Unlock()
	if s.traced {
		s.span = b.span("op", due, t1, 0) // ends at the ack, set on collect
		b.span("client.generate", t0, t1, s.span)
	}
}

// converge drains a document: every op acknowledged, both writers at the
// full serialization, identical texts, and (sampled docs) a history that
// satisfies the weak list specification. It returns the converged text.
func (b *bench) converge(p *pair) (string, bool) {
	d := p.doc
	want := uint64(len(d.order))
	ctx, cancel := context.WithTimeout(context.Background(), convergeTimeout)
	defer cancel()
	for w, cl := range p.cl {
		if err := cl.Sync(ctx); err != nil {
			b.fail(cl.Pending(), "%s: writer %d: %d ops unacked: %v", d.name, w, cl.Pending(), err)
			return "", false
		}
	}
	for w, cl := range p.cl {
		if err := cl.WaitServerSeq(ctx, want); err != nil {
			b.fail(int(want-cl.ServerSeq()), "%s: writer %d at seq %d of %d: %v", d.name, w, cl.ServerSeq(), want, err)
			return "", false
		}
	}
	if d.hist != nil {
		for _, cl := range p.cl {
			cl.Read()
		}
	}
	text := p.cl[0].Text()
	if !b.gate(d, [2]string{text, p.cl[1].Text()}) {
		return "", false
	}
	d.text = text
	b.collect(d)
	if d.capture {
		b.captured = append(b.captured, d)
		b.capturedOps += len(d.order)
	}
	return text, true
}

// gate checks a drained document: both writers hold the same text, and a
// sampled document's history satisfies the weak list specification. A
// failed check fails every op of the document.
func (b *bench) gate(d *docRun, texts [2]string) bool {
	n := len(d.order)
	if texts[0] != texts[1] {
		b.fail(n, "%s: writers diverged (%d vs %d chars)", d.name, len(texts[0]), len(texts[1]))
		return false
	}
	if d.hist != nil {
		if err := checkHistory(d.hist); err != nil {
			b.fail(n, "%s: %v", d.name, err)
			return false
		}
	}
	return true
}

// checkHistory runs the drain-time spec checks on a recorded history.
func checkHistory(h *core.History) error {
	if err := h.WellFormed(); err != nil {
		return fmt.Errorf("recorder: %w", err)
	}
	if err := spec.CheckWeak(h); err != nil {
		return err
	}
	return spec.CheckConvergence(h)
}

// collect moves a converged document's op timelines into the run's samples.
func (b *bench) collect(d *docRun) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.order {
		if s.ack.IsZero() || s.vis.IsZero() {
			b.fail(1, "%s: op converged without an ack or broadcast", d.name)
			continue
		}
		b.ops = append(b.ops, s)
		if s.traced {
			b.spans[s.span-1].End = s.ack.UnixNano()
			b.span("client.ack_wait", s.genEnd, s.ack, s.span)
			b.span("replica.visible", s.due, s.vis, s.span)
		}
	}
}

// sleepUntil sleeps until t (no-op if t has passed) and returns how late
// the wake-up was.
func sleepUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return time.Since(t)
}
