package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// workload is one seeded script. The run repeats unit(b, i) for i = 0, 1, ...
// until the deadline, always at least once; a unit's inputs depend only on
// the seed and i, never on timing. warm(b, i) runs one unmeasured unit of
// the set-up (i < 0).
type workload struct {
	name     string
	why      string
	openLoop bool // ops_per_s is derived from CPU, not wall time
	unit     func(b *bench, i int)
	warm     func(b *bench, i int)
}

var workloads = []workload{
	{
		name:     "sessions",
		why:      "two writers type 100 ops into a fresh doc on an open-loop Poisson schedule (200 ops/s), converge, close, repeat: short histories, so wire, dispatch, client pump and join do the work",
		openLoop: true,
		unit:     sessionUnit,
		warm:     sessionUnit,
	},
	{
		name: "paste",
		why:  "two writers each burst a 64-op block into a fresh doc at once, closed loop: deep concurrency at short history, so the Algorithm 1 ladder and the a x b state grid do the work",
		unit: pasteUnit,
		warm: pasteUnit,
	},
	{
		name: "long-doc",
		why:  "two writers grow a doc to 2000 ops in lockstep rounds, then fresh clients open it 3 times, on a fresh jupiterd each time: history-bound state lookup, untrimmed metadata, full-history joins",
		unit: longDocUnit,
		warm: func(b *bench, i int) { longDocWrite(b, i) },
	},
}

// unitRNG seeds a unit's script from the run seed and the unit's index.
func unitRNG(seed int64, unit int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(unit)))
}

// Sessions: open loop, far below capacity.
const (
	sessionOps     = 100
	sessionRate    = 200.0 // ops/s over both writers
	sessionDelFrac = 0.2
	sampleEvery    = 8 // every 8th session records its history for the spec check
)

func sessionUnit(b *bench, i int) {
	rng := unitRNG(b.opt.seed, i)
	p := b.openPair(fmt.Sprintf("sessions-%d", i), i%sampleEvery == 0, true)
	if p == nil {
		b.attempted += sessionOps
		b.failed += sessionOps
		return
	}
	ph := b.beginPhase()
	due := time.Now()
	for k := 0; k < sessionOps; k++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / sessionRate * float64(time.Second)))
		w := rng.Intn(2)
		e := randomEdit(rng, sessionDelFrac)
		b.lates = append(b.lates, ms(sleepUntil(due)))
		b.generate(p, w, e, due)
	}
	if _, ok := b.converge(p); ok {
		b.endPhase(ph, p.doc)
	}
	p.close()
}

// Paste: closed loop of concurrent blocks. The benchmark process runs at
// GOMAXPROCS=1 and generation never blocks, so both blocks are generated
// before either writer's reader applies a remote op, and every op of one
// block is concurrent with every op of the other, whatever order the server
// serializes them in. Only a socket write slow enough for the runtime to
// hand the processor to a reader breaks this; in the captured contexts of
// test runs that touched under 0.5% of ops.
const (
	pasteBlock         = 64 // one default send window
	pasteDocsPerDaemon = 25 // docs are never evicted: restart jupiterd to bound its memory
)

func pasteUnit(b *bench, i int) {
	if i > 0 && i%pasteDocsPerDaemon == 0 {
		if err := b.restart(); err != nil {
			b.fail(1, "restart jupiterd: %v", err)
			return
		}
	}
	rng := unitRNG(b.opt.seed, i)
	p := b.openPair(fmt.Sprintf("paste-%d", i), i%pasteDocsPerDaemon == 0, true)
	if p == nil {
		b.attempted += 2 * pasteBlock
		b.failed += 2 * pasteBlock
		return
	}
	ph := b.beginPhase()
	for k := 0; k < pasteBlock; k++ {
		for w := range p.cl {
			b.generate(p, w, edit{at: k, ch: rune('a' + rng.Intn(26))}, time.Time{})
		}
	}
	if _, ok := b.converge(p); ok {
		b.endPhase(ph, p.doc)
	}
	p.close()
}

// Long-doc: lockstep rounds (every op concurrent with exactly one other)
// grow a fresh doc on a fresh jupiterd, then fresh clients open the full
// history.
const (
	longOps     = 2000
	longOpens   = 3
	longDelFrac = 0.15
)

func longDocUnit(b *bench, i int) {
	if i > 0 {
		if err := b.restart(); err != nil {
			b.fail(1, "restart jupiterd: %v", err)
			return
		}
	}
	name, text, ok := longDocWrite(b, i)
	if !ok {
		return
	}
	for j := 0; j < longOpens; j++ {
		cl := b.dial(name, nil, nil, true)
		if cl == nil {
			continue
		}
		if got := cl.Text(); got != text {
			b.fail(1, "%s: open %d returned %d chars, want %d", name, j, len(got), len(text))
		}
		cl.Close()
	}
}

// longDocWrite grows unit i's document and returns its name and text.
func longDocWrite(b *bench, i int) (string, string, bool) {
	rng := unitRNG(b.opt.seed, i)
	name := fmt.Sprintf("long-doc-%d", i)
	p := b.openPair(name, false, false)
	if p == nil {
		b.attempted += longOps
		b.failed += longOps
		return "", "", false
	}
	ph := b.beginPhase()
	ok := true
	for r := 1; ok && r <= longOps/2; r++ {
		p.traced = b.opt.trace && r%2 == 0
		for w := range p.cl {
			b.generate(p, w, randomEdit(rng, longDelFrac), time.Time{})
		}
		ok = lockstep(b, p, uint64(len(p.doc.order)))
	}
	text, ok := b.converge(p)
	p.close()
	if ok {
		b.endPhase(ph, p.doc)
	}
	return name, text, ok
}

// lockstep waits until both writers processed every op so far.
func lockstep(b *bench, p *pair, seq uint64) bool {
	ctx, cancel := context.WithTimeout(context.Background(), convergeTimeout)
	defer cancel()
	for w, cl := range p.cl {
		if err := cl.WaitServerSeq(ctx, seq); err != nil {
			b.fail(1, "%s: writer %d stuck before seq %d: %v", p.doc.name, w, seq, err)
			return false
		}
	}
	return true
}
