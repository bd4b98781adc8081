package main

import (
	"crypto/sha256"
	"math"
	"time"
)

// Host speed. The benchmark runs on shared virtual machines whose speed
// drifts by 10–30% over minutes with nothing of the benchmark running
// (STEADINESS.md), and every time the benchmark takes drifts with it. So
// right after each unit the runner probes the host: it times fixed work on
// its own CPU clock. Each unit's times are then scaled by the reference
// probe time ÷ the median probe of the units around it, and read as times
// on a host where the probe takes the reference time. The probe calls no
// code of the repository and allocates nothing, so no change to jupiterd
// or the client moves it.
//
// The probe is a compute kernel: SHA-256 over 512 KiB, then random
// read-modify-writes over a 256 KiB table. Its data stays in the core's
// own caches, so it follows the core's speed; a table larger than those
// caches would measure how much of it other tenants evicted since the last
// probe, which depends on how long the workload idled. An open loop's
// processes sleep between ops, and on a virtual machine waking from sleep
// costs CPU time that drifts apart from compute speed, so there the probe
// also times wake-ups: sleeps of 2 ms, each followed by a pass over 64 KiB.
// A closed loop never sleeps, and sleeping between its units would change
// how it runs, so its probe is the kernel alone.
const (
	refComputeUs = 2400.0 // the kernel's median on a 2-vCPU host of 2026
	refWakeUs    = 550.0  // the wake-ups' median on the same host
	wakeCycles   = 10
	probeWindow  = 2 // a unit is scaled by the median of the 2·probeWindow+1 probes around it
)

var (
	kernelHash  = sha256.New()
	kernelBlock = make([]byte, 4096)
	kernelTable = make([]uint32, 1<<16)
	wakeTable   = make([]uint32, 1<<14)
)

// probeHost probes the host once and records the probe's CPU time in µs.
func (b *bench) probeHost() {
	us := b.computeUs()
	if b.openLoop {
		us += b.wakeUs()
	}
	b.probes = append(b.probes, us)
}

// refProbeUs is the probe's time on the reference host.
func (b *bench) refProbeUs() float64 {
	if b.openLoop {
		return refComputeUs + refWakeUs
	}
	return refComputeUs
}

// hostScale is the factor that takes a time measured next to probe i to
// the reference host.
func (b *bench) hostScale(i int) float64 {
	if len(b.probes) == 0 {
		return math.NaN()
	}
	i = min(max(i, 0), len(b.probes)-1)
	lo, hi := max(0, i-probeWindow), min(len(b.probes), i+probeWindow+1)
	return b.refProbeUs() / median(append([]float64(nil), b.probes[lo:hi]...))
}

// probeMedian is the run's median probe in µs.
func (b *bench) probeMedian() float64 { return median(append([]float64(nil), b.probes...)) }

// computeUs runs the compute kernel once and returns its CPU time in µs.
func (b *bench) computeUs() float64 {
	c0 := b.selfCPU()
	kernelHash.Reset()
	for i := 0; i < 128; i++ {
		kernelHash.Write(kernelBlock)
	}
	x := uint32(1)
	for i := 0; i < 1_000_000; i++ {
		x = x*1664525 + 1013904223
		kernelTable[x&(1<<16-1)] += x
	}
	return float64(b.selfCPU()-c0) / float64(time.Microsecond)
}

// wakeUs sleeps wakeCycles times, passing over 64 KiB after each wake-up,
// and returns the CPU time (not the sleep) in µs.
func (b *bench) wakeUs() float64 {
	c0 := b.selfCPU()
	for c := 0; c < wakeCycles; c++ {
		time.Sleep(2 * time.Millisecond)
		for i := range wakeTable {
			wakeTable[i] += uint32(i)
		}
	}
	return float64(b.selfCPU()-c0) / float64(time.Microsecond)
}
