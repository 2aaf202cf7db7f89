package cache

import (
	"fmt"

	"ubscache/internal/snap"
)

// State is a Cache's mutable state, the form the cache keeps it in and
// the checkpoint stores: every Block (set-major, Sets*Ways entries), the
// counters, and the replacement policy's own state. Geometry is
// configuration, not state; RestoreInPlace requires a Cache built from
// the same Config.
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
	// Tables holds ghrp's dead-block predictor tables, flat and
	// table-major.
	Tables []uint8
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

// AppendState appends the snap encoding of the cache's live State to
// buf.
func (c *Cache) AppendState(buf []byte) ([]byte, error) { return snap.Append(buf, &c.st) }

// RestoreInPlace fills the cache's own State in place through fill,
// which decodes into the value it is handed, and then checks every
// length against the cache as built, for an image captured from a cache
// of the same geometry and policy. A failed RestoreInPlace leaves the
// cache unusable.
func (c *Cache) RestoreInPlace(fill func(any) error) error {
	want := c.st
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
	if len(src.Policy.Tables) != len(want.Policy.Tables) {
		return fmt.Errorf("cache %s: %s policy tables: snapshot has %d entries, target has %d",
			c.cfg.Name, c.policy.Name(), len(src.Policy.Tables), len(want.Policy.Tables))
	}
	return nil
}

// copyState deep-copies src into dst, reusing dst's backing arrays.
func copyState(dst, src *State) {
	blocks, tables := dst.Blocks, dst.Policy.Tables
	*dst = *src
	dst.Blocks = append(blocks[:0], src.Blocks...)
	dst.Policy.Tables = append(tables[:0], src.Policy.Tables...)
}
