package cache

import "fmt"

// State is the checkpointable image of a Cache: every Block of every set
// (flattened in set-major order) plus the counters and whatever mutable
// state the replacement policy carries. Geometry (sets, ways, block
// size) is configuration, not state — Restore requires a Cache built
// from the same Config.
//
//ubs:state
type State struct {
	// Blocks holds Sets*Ways entries, set-major.
	Blocks []Block
	Stats  Stats
	Policy PolicyState
}

// PolicyState is the union of every stateful replacement policy's
// mutable fields. Exactly the fields the cache's policy uses are
// meaningful; the rest stay zero.
type PolicyState struct {
	// Clock is the lru monotonic tick and the ghrp access clock.
	Clock uint64
	// History is ghrp's global branchless access history.
	History uint32
	// Tables holds ghrp's dead-block predictor tables.
	Tables [][]uint8
}

// StatefulPolicy is implemented by replacement policies whose decisions
// depend on mutable state beyond the per-Block metadata.
type StatefulPolicy interface {
	SnapshotPolicy(dst *PolicyState)
	RestorePolicy(src *PolicyState)
}

// Snapshot copies the cache's mutable state into dst, reusing dst's
// backing storage where it is already the right size.
func (c *Cache) Snapshot(dst *State) {
	want := c.cfg.Sets * c.cfg.Ways
	if cap(dst.Blocks) < want {
		dst.Blocks = make([]Block, want)
	}
	dst.Blocks = dst.Blocks[:want]
	for s := range c.sets {
		copy(dst.Blocks[s*c.cfg.Ways:(s+1)*c.cfg.Ways], c.sets[s])
	}
	dst.Stats = c.stats
	// Reset the policy union to zero while keeping backing storage
	// reusable for the policy that is actually installed.
	dst.Policy.Clock, dst.Policy.History = 0, 0
	for i := range dst.Policy.Tables {
		dst.Policy.Tables[i] = dst.Policy.Tables[i][:0]
	}
	dst.Policy.Tables = dst.Policy.Tables[:0]
	if sp, ok := c.policy.(StatefulPolicy); ok {
		sp.SnapshotPolicy(&dst.Policy)
	}
}

// Restore installs a previously captured State. The cache must have the
// same geometry the snapshot was taken from.
func (c *Cache) Restore(src *State) error {
	want := c.cfg.Sets * c.cfg.Ways
	if len(src.Blocks) != want {
		return fmt.Errorf("cache %s: snapshot has %d blocks, cache holds %d", c.cfg.Name, len(src.Blocks), want)
	}
	for s := range c.sets {
		copy(c.sets[s], src.Blocks[s*c.cfg.Ways:(s+1)*c.cfg.Ways])
	}
	c.stats = src.Stats
	if sp, ok := c.policy.(StatefulPolicy); ok {
		sp.RestorePolicy(&src.Policy)
	}
	return nil
}

func (p *lru) SnapshotPolicy(dst *PolicyState) { dst.Clock = p.clock }
func (p *lru) RestorePolicy(src *PolicyState)  { p.clock = src.Clock }

func (g *ghrp) SnapshotPolicy(dst *PolicyState) {
	if cap(dst.Tables) < ghrpTables {
		dst.Tables = make([][]uint8, ghrpTables)
	}
	dst.Tables = dst.Tables[:ghrpTables]
	for i := range g.tables {
		dst.Tables[i] = append(dst.Tables[i][:0], g.tables[i]...)
	}
	dst.History = g.history
	dst.Clock = g.clock
}

func (g *ghrp) RestorePolicy(src *PolicyState) {
	for i := range g.tables {
		if i < len(src.Tables) {
			copy(g.tables[i], src.Tables[i])
		}
	}
	g.history = src.History
	g.clock = src.Clock
}
