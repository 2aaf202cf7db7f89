package cache

// NewLRU returns a least-recently-used policy.
func NewLRU(sets, ways int) Policy { return &lru{} }

type lru struct{ clock uint64 }

func (p *lru) Name() string { return "lru" }

func (p *lru) OnFill(set, way int, b *Block, ctx AccessContext) {
	p.clock++
	b.LRU = p.clock
}

func (p *lru) OnHit(set, way int, b *Block, ctx AccessContext) {
	p.clock++
	b.LRU = p.clock
}

func (p *lru) OnEvict(set, way int, b *Block) {}

func (p *lru) Victim(set int, blocks []Block, ctx AccessContext) int {
	victim, oldest := 0, ^uint64(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
		if blocks[w].LRU < oldest {
			victim, oldest = w, blocks[w].LRU
		}
	}
	return victim
}
