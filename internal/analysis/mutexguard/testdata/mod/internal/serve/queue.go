// Package serve exercises mutexguard on the job-server role: the
// queue/lease bookkeeping is mutated from handlers and scheduler
// goroutines at once, so every access must hold the declared mutex.
package serve

import "sync"

// sched mirrors the job-server scheduler state.
type sched struct {
	mu sync.Mutex
	//ubs:guardedby(mu)
	queue []int
	//ubs:guardedby(mu)
	running int

	unguarded int // no annotation: never checked
}

// enqueue holds the lock across the mutation: clean.
func (s *sched) enqueue(v int) {
	s.mu.Lock()
	s.queue = append(s.queue, v)
	s.mu.Unlock()
}

// deferred uses the canonical defer-unlock idiom: the lock stays held
// to the end of the body.
func (s *sched) deferred(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, v)
	s.running++
}

// naked touches guarded state with no lock at all.
func (s *sched) naked() int {
	return len(s.queue) // want `field queue is //ubs:guardedby\(mu\) but s\.mu is not provably held`
}

// afterUnlock reads guarded state after releasing the lock.
func (s *sched) afterUnlock() int {
	s.mu.Lock()
	n := s.running
	s.mu.Unlock()
	return n + len(s.queue) // want `field queue is //ubs:guardedby\(mu\) but s\.mu is not provably held`
}

// oneArmed locks on only one branch: the must-join discards the lock.
func (s *sched) oneArmed(lock bool) {
	if lock {
		s.mu.Lock()
	}
	s.running++ // want `field running is //ubs:guardedby\(mu\) but s\.mu is not provably held`
	if lock {
		s.mu.Unlock()
	}
}

// takeLocked declares the caller-holds-the-lock contract: clean.
//
//ubs:locked(mu)
func (s *sched) takeLocked() (int, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	v := s.queue[0]
	s.queue = s.queue[1:]
	s.running++
	return v, true
}

// caller shows the contract from the other side.
func (s *sched) caller() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.takeLocked()
}

// item guards its fields with a pointer to its scheduler's mutex.
type item struct {
	mu *sync.Mutex
	//ubs:guardedby(mu)
	state int
}

// moveLocked names the item's lock path beside its own: clean.
//
//ubs:locked(mu, it.mu)
func (s *sched) moveLocked(it *item) {
	s.running++
	it.state++
}

// moveHalfLocked names only its own lock.
//
//ubs:locked(mu)
func (s *sched) moveHalfLocked(it *item) {
	s.running++
	it.state++ // want `field state is //ubs:guardedby\(mu\) but it\.mu is not provably held`
}

// waived is an audited constructor-time access: no other goroutine can
// see the value yet.
func newSched(capacity int) *sched {
	s := &sched{}
	//ubs:unguarded construction: s has not escaped to any other goroutine yet
	s.queue = make([]int, 0, capacity)
	return s
}

// bareWaiver lacks the mandatory justification.
func (s *sched) bareWaiver() {
	//ubs:unguarded
	s.running = 0 // want `the //ubs:unguarded waiver needs a justification`
}

// orphan declares a guard that does not exist.
type orphan struct {
	//ubs:guardedby(lock)
	val int // want `//ubs:guardedby\(lock\) names no sibling sync\.Mutex/RWMutex field "lock" in this struct`
}
