package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: the speed of one vCPU
// drifts by a fifth or more within seconds as neighbours come and go,
// and by more between minutes. A fixed reference kernel, which does not
// touch the simulator's code, is timed in thread CPU time throughout
// every run, and every host time is reported at the reference speed:
// scaled by refPassNs over the kernel's mean pass time while that metric
// was measured. run.sh pins the benchmark to one vCPU, so the kernel
// times the CPU the work runs on. The host's drift cancels; a change in
// the simulator does not.
const (
	// speedPeriod is how often the reference kernel runs; one pass takes
	// about a millisecond, so the sampler holds a CPU about 2% of the time.
	speedPeriod = 50 * time.Millisecond
	// speedIters is the number of kernel steps in one pass.
	speedIters = 80_000
	// speedWords sizes the kernel's table: 256 KiB, about the size of
	// the private caches the simulator's loop works in. Over four minutes
	// of spec_001 on one vCPU whose speed drifted by a fifth, the ratio of
	// simulator to kernel time drifted by a twentieth with this table or a
	// 4 MiB one, and by a tenth with a 32 KiB one; in calm minutes this
	// size added the least noise.
	speedWords = 1 << 16
	// refPassNs is the reference speed: a round figure near the thread
	// CPU time of one pass on the 2-vCPU host the bounds were set on.
	refPassNs = 1_000_000.0
)

// speedSampler times the reference kernel every speedPeriod until stop.
type speedSampler struct {
	quit    chan struct{}
	done    chan struct{}
	at      []time.Time // when each pass ended
	samples []float64   // thread CPU ns per pass
	sink    uint32
}

// minSpeedPasses is the fewest passes a window's speed is read from; a
// shorter window is widened on both sides until it holds that many.
const minSpeedPasses = 20

func startSpeedSampler() *speedSampler {
	s := &speedSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *speedSampler) loop() {
	defer close(s.done)
	// Thread CPU time only counts while this goroutine's thread runs, so
	// the wait for a CPU the workload holds is not measured.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	table := make([]uint32, speedWords)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	tick := time.NewTicker(speedPeriod)
	defer tick.Stop()
	for {
		t0 := threadCPUNs()
		s.sink += speedKernel(table, speedIters)
		s.samples = append(s.samples, float64(threadCPUNs()-t0))
		s.at = append(s.at, time.Now())
		select {
		case <-s.quit:
			return
		case <-tick.C:
		}
	}
}

// stop ends the sampler, waits for it, and returns the mean pass time
// in thread CPU ns (see trimmedMean) and the number of passes.
func (s *speedSampler) stop() (float64, int) {
	close(s.quit)
	<-s.done
	return trimmedMean(s.samples), len(s.samples)
}

// passNs returns the mean pass time (see trimmedMean) over the passes that ended in
// [from, to], widened to at least minSpeedPasses passes. Call it only
// after stop.
func (s *speedSampler) passNs(from, to time.Time) float64 {
	for margin := time.Duration(0); ; margin = max(2*margin, speedPeriod) {
		var xs []float64
		for i, t := range s.at {
			if !t.Before(from.Add(-margin)) && !t.After(to.Add(margin)) {
				xs = append(xs, s.samples[i])
			}
		}
		if len(xs) >= min(minSpeedPasses, len(s.samples)) {
			return trimmedMean(xs)
		}
	}
}

// speedKernel is the reference work: xorshift-addressed reads and writes
// over table, with a data-dependent branch, so it exercises the caches
// and the branch predictor as a simulator loop does.
func speedKernel(table []uint32, iters int) uint32 {
	mask := uint32(len(table) - 1)
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := table[x&mask]
		if v&1 == 0 {
			acc += v
		} else {
			acc ^= v * 2654435761
		}
		table[x&mask] = v + acc
	}
	return acc
}

// threadCPUNs reads the calling thread's CPU time.
func threadCPUNs() int64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}
