package workload

import "math/rand"

// rngLen and rngTap are the lags of math/rand's additive lagged-Fibonacci
// generator: out[k] = out[k-rngLen] + out[k-rngTap] (mod 2^64).
const (
	rngLen = 607
	rngTap = 273
)

// RNG is a concrete copy of math/rand's default source: for the same seed
// its Float64, Intn and Int63 return exactly what a rand.New(rand.NewSource)
// generator returns. Owning the generator makes its state plain data, so a
// checkpoint carries it instead of replaying the draws, and the walker's
// calls bind statically instead of through the rand.Source interface.
type RNG struct {
	Vec  [rngLen]int64
	Tap  int // index into Vec, in [0,rngLen)
	Feed int // index into Vec, in [0,rngLen)
}

// Seed puts r in the state math/rand.NewSource(seed) starts in. Rather
// than copy the stdlib's seeding table, it draws the stdlib source's first
// rngLen outputs and runs the recurrence backwards: the initial register
// holds the virtual outputs out[-rngLen..-1], and
// out[k-rngLen] = out[k] - out[k-rngTap].
func (r *RNG) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	// out[i] holds output number i-rngLen.
	var out [2 * rngLen]int64
	for i := rngLen; i < len(out); i++ {
		out[i] = int64(src.Uint64())
	}
	for i := rngLen - 1; i >= 0; i-- {
		out[i] = out[i+rngLen] - out[i+rngLen-rngTap]
	}
	// Draw k writes Vec[(rngLen-rngTap-1-k) mod rngLen], which therefore
	// starts out holding out[k-rngLen].
	r.Tap, r.Feed = 0, rngLen-rngTap
	for s := range r.Vec {
		r.Vec[s] = out[(2*rngLen-rngTap-1-s)%rngLen]
	}
}

// next advances the register one step and returns the new word.
func (r *RNG) next() uint64 {
	r.Tap--
	if r.Tap < 0 {
		r.Tap += rngLen
	}
	r.Feed--
	if r.Feed < 0 {
		r.Feed += rngLen
	}
	x := r.Vec[r.Feed] + r.Vec[r.Tap]
	r.Vec[r.Feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.next() &^ (1 << 63)) }

// int31 returns a non-negative pseudo-random 31-bit integer.
func (r *RNG) int31() int32 { return int32(r.Int63() >> 32) }

// Float64 returns a pseudo-random number in [0.0,1.0).
func (r *RNG) Float64() float64 {
	for {
		// Same value stream as math/rand: a draw that rounds up to 1 is
		// redrawn.
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn returns a pseudo-random number in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		n := int32(n)
		if n&(n-1) == 0 {
			return int(r.int31() & (n - 1))
		}
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
		v := r.int31()
		for v > max {
			v = r.int31()
		}
		return int(v % n)
	}
	n64 := int64(n)
	if n64&(n64-1) == 0 {
		return int(r.Int63() & (n64 - 1))
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n64))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return int(v % n64)
}
