package trace

import "fmt"

// Skipper is implemented by sources that can discard n instructions
// faster than n Next calls. Skip must behave exactly like n successful
// Next calls: same final cursor, error if the source ends first.
type Skipper interface {
	Skip(n uint64) error
}

// Skip advances src past exactly n instructions, as if Next had been
// called n times successfully. It is the restore path for every source
// whose state a checkpoint cannot hold (mixes, open file readers,
// wrapped sources): a restored machine opens a fresh source and skips to
// the consumed-instruction count recorded in the snapshot. A bare
// synthetic walker is restored from its image instead (see
// sim.MachineState). A source that ends early is an error — the
// checkpoint does not match the workload.
func Skip(src Source, n uint64) error {
	if n == 0 {
		return nil
	}
	if s, ok := src.(Skipper); ok {
		return s.Skip(n)
	}
	for i := uint64(0); i < n; i++ {
		if _, ok := src.Next(); !ok {
			return fmt.Errorf("trace: source ended after %d of %d skipped instructions", i, n)
		}
	}
	return nil
}

// Skip implements Skipper in O(1).
func (s *Slice) Skip(n uint64) error {
	left := uint64(len(s.ins) - s.pos)
	if n > left {
		s.pos = len(s.ins)
		return fmt.Errorf("trace: source ended after %d of %d skipped instructions", left, n)
	}
	s.pos += int(n)
	return nil
}

// Skip implements Skipper in O(1).
func (l *Loop) Skip(n uint64) error {
	l.pos = int((uint64(l.pos) + n) % uint64(len(l.ins)))
	return nil
}
