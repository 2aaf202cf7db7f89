package cache

// GHRP — Global History Reuse Prediction (Ajorpaz et al., "Exploring
// Predictive Replacement Policies for Instruction Cache and Branch Target
// Buffer", ISCA 2018) — is the replacement-policy baseline of the paper's
// Figure 13.
//
// The policy hashes the accessing PC with a global history of recent
// instruction-cache access PCs into a signature. Banks of saturating
// counters, indexed by independent hashes of the signature, learn whether a
// block last touched by that signature is dead (will not be reused before
// eviction). Predicted-dead blocks are preferred victims; dead-on-arrival
// fills are inserted with eviction priority. This is a faithful
// reimplementation of the mechanism at the level of detail the simulator
// models (no set sampling; all sets train).

const (
	ghrpTables      = 3
	ghrpTableBits   = 12
	ghrpCounterMax  = 3
	ghrpDeadThresh  = 2
	ghrpHistoryBits = 16
)

// NewGHRP returns a GHRP replacement policy. Its tables, history and
// clock live in the PolicyState of the Cache that New binds it to.
func NewGHRP(sets, ways int) Policy { return &ghrp{} }

type ghrp struct{ st *PolicyState }

func (g *ghrp) bind(st *PolicyState) {
	st.Tables = make([]uint8, ghrpTables<<ghrpTableBits)
	g.st = st
}

func (g *ghrp) Name() string { return "ghrp" }

// signature mixes the access PC with the global history.
func (g *ghrp) signature(pc uint64) uint32 {
	h := (pc >> 2) ^ uint64(g.st.History)<<7
	h ^= h >> 17
	h *= 0x9e3779b1
	h ^= h >> 13
	return uint32(h) & (1<<ghrpHistoryBits - 1)
}

func (g *ghrp) updateHistory(pc uint64) {
	g.st.History = (g.st.History<<3 ^ uint32(pc>>2)) & (1<<ghrpHistoryBits - 1)
}

// index returns sig's counter in table, as an index into the flat
// table-major Tables.
func (g *ghrp) index(table int, sig uint32) int {
	h := uint64(sig) * (0x85ebca6b + 2*uint64(table)*0x27d4eb2f)
	h ^= h >> 15
	return table<<ghrpTableBits | int(h)&(1<<ghrpTableBits-1)
}

// predictDead reports the majority vote of the counter tables.
func (g *ghrp) predictDead(sig uint32) bool {
	votes := 0
	for t := 0; t < ghrpTables; t++ {
		if g.st.Tables[g.index(t, sig)] >= ghrpDeadThresh {
			votes++
		}
	}
	return votes*2 > ghrpTables
}

// train moves the counters for sig towards dead (true) or alive (false).
func (g *ghrp) train(sig uint32, dead bool) {
	for t := 0; t < ghrpTables; t++ {
		i := g.index(t, sig)
		if dead {
			if g.st.Tables[i] < ghrpCounterMax {
				g.st.Tables[i]++
			}
		} else if g.st.Tables[i] > 0 {
			g.st.Tables[i]--
		}
	}
}

func (g *ghrp) OnFill(set, way int, b *Block, ctx AccessContext) {
	sig := g.signature(ctx.PC)
	b.Signature = sig
	b.DeadPred = g.predictDead(sig)
	g.st.Clock++
	if b.DeadPred {
		// Dead-on-arrival: insert at eviction priority (stale timestamp).
		b.LRU = 0
	} else {
		b.LRU = g.st.Clock
	}
	g.updateHistory(ctx.PC)
}

func (g *ghrp) OnHit(set, way int, b *Block, ctx AccessContext) {
	// The previous signature proved alive.
	g.train(b.Signature, false)
	sig := g.signature(ctx.PC)
	b.Signature = sig
	b.DeadPred = g.predictDead(sig)
	g.st.Clock++
	b.LRU = g.st.Clock
	g.updateHistory(ctx.PC)
}

func (g *ghrp) OnEvict(set, way int, b *Block) {
	// The last-touch signature led to death.
	g.train(b.Signature, true)
}

func (g *ghrp) Victim(set int, blocks []Block, ctx AccessContext) int {
	// Prefer predicted-dead blocks (re-evaluated against current tables),
	// breaking ties by LRU; fall back to plain LRU.
	victim, oldest := -1, ^uint64(0)
	for w := range blocks {
		if !blocks[w].Valid {
			return w
		}
		if g.predictDead(blocks[w].Signature) && blocks[w].LRU < oldest {
			victim, oldest = w, blocks[w].LRU
		}
	}
	if victim >= 0 {
		return victim
	}
	for w := range blocks {
		if blocks[w].LRU < oldest {
			victim, oldest = w, blocks[w].LRU
		}
	}
	return victim
}
