package cache

// NewLRU returns a least-recently-used policy. Its clock lives in the
// PolicyState of the Cache that New binds it to.
func NewLRU(sets, ways int) Policy { return &lru{} }

type lru struct{ st *PolicyState }

func (p *lru) bind(st *PolicyState) { p.st = st }

func (p *lru) Name() string { return "lru" }

func (p *lru) OnFill(set, way int, b *Block, ctx AccessContext) {
	p.st.Clock++
	b.LRU = p.st.Clock
}

func (p *lru) OnHit(set, way int, b *Block, ctx AccessContext) {
	p.st.Clock++
	b.LRU = p.st.Clock
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
