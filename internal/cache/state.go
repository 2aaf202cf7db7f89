package cache

import (
	"fmt"
	"slices"
)

// State is a Cache's mutable state, the form the cache keeps it in and
// the checkpoint stores: every Block (set-major, Sets*Ways entries), the
// counters, and the replacement policy's own state. Geometry is
// configuration, not state; Restore requires a Cache built from the same
// Config.
type State struct {
	Blocks []Block
	Stats  Stats
	Policy PolicyState
}

// PolicyState is the mutable state of a replacement policy beyond the
// per-Block metadata. Exactly the fields the cache's policy uses are
// meaningful; the rest stay zero.
type PolicyState struct {
	// Clock is the lru monotonic tick and the ghrp access clock.
	Clock uint64
	// History is ghrp's global branchless access history.
	History uint32
	// Tables holds ghrp's dead-block predictor tables.
	Tables [][]uint8
}

// boundPolicy is implemented by the policies that keep their state in
// the cache's PolicyState: New binds them to it (sizing any tables), so
// the state is snapshot and restored with the rest of State.
type boundPolicy interface {
	bind(st *PolicyState)
}

// Snapshot copies the cache's state into dst; dst shares no memory with
// the cache.
func (c *Cache) Snapshot(dst *State) { copyState(dst, &c.st) }

// Restore installs a State captured from a cache of the same geometry
// and policy, after checking every length against this cache.
func (c *Cache) Restore(src *State) error {
	if err := c.check(src, &c.st); err != nil {
		return err
	}
	copyState(&c.st, src)
	return nil
}

// RestoreInPlace fills the cache's own State in place through fill,
// which decodes into the value it is handed, and then runs Restore's
// checks on it. A failed RestoreInPlace leaves the cache unusable.
func (c *Cache) RestoreInPlace(fill func(any) error) error {
	// fill may replace the policy tables' rows in their backing array;
	// the shape the checks compare against keeps its own row headers.
	want := c.st
	want.Policy.Tables = slices.Clone(want.Policy.Tables)
	if err := fill(&c.st); err != nil {
		return err
	}
	return c.check(&c.st, &want)
}

// check validates an image against want, this cache's state as built.
func (c *Cache) check(src, want *State) error {
	if len(src.Blocks) != len(want.Blocks) {
		return fmt.Errorf("cache %s: snapshot has %d blocks, cache holds %d", c.cfg.Name, len(src.Blocks), len(want.Blocks))
	}
	if err := sameShape(src.Policy.Tables, want.Policy.Tables); err != nil {
		return fmt.Errorf("cache %s: %s policy tables: %w", c.cfg.Name, c.policy.Name(), err)
	}
	return nil
}

// copyState deep-copies src into dst, reusing dst's backing arrays.
func copyState(dst, src *State) {
	blocks, tables := dst.Blocks, dst.Policy.Tables
	*dst = *src
	dst.Blocks = append(blocks[:0], src.Blocks...)
	dst.Policy.Tables = copy2D(tables, src.Policy.Tables)
}

// copy2D deep-copies src into dst row by row, reusing dst's rows where
// their capacity allows, and returns the copy.
func copy2D[T any](dst, src [][]T) [][]T {
	if src == nil {
		return nil
	}
	if cap(dst) < len(src) {
		dst = make([][]T, len(src))
	}
	dst = dst[:len(src)]
	for i := range src {
		dst[i] = append(dst[i][:0], src[i]...)
	}
	return dst
}

// sameShape reports an error unless got has want's row count and row
// lengths.
func sameShape[T any](got, want [][]T) error {
	if len(got) != len(want) {
		return fmt.Errorf("snapshot has %d rows, target has %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d entries, target has %d", i, len(got[i]), len(want[i]))
		}
	}
	return nil
}
