package workload

import (
	"testing"

	"ubscache/internal/trace"
)

func varLenConfig() Config {
	cfg := testConfig()
	cfg.VarLenISA = true
	cfg.InstrSizeRange = [2]int{2, 9}
	return cfg
}

func TestVarLenBlocksHaveOffsets(t *testing.T) {
	p, err := Build(varLenConfig())
	if err != nil {
		t.Fatal(err)
	}
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			offs := blockOffs(p, b)
			if offs == nil {
				t.Fatalf("func %d block %d has no offsets", fi, bi)
			}
			if len(offs) != b.NInstr+1 {
				t.Fatalf("offsets length %d for %d instructions", len(offs), b.NInstr)
			}
			for i := 0; i < b.NInstr; i++ {
				sz := p.InstrSize(b, i)
				if sz < 2 || sz > 9 {
					t.Fatalf("instruction size %d out of [2,9]", sz)
				}
			}
			if p.SizeBytes(b) != int(offs[b.NInstr]) {
				t.Fatal("SizeBytes mismatch")
			}
		}
	}
}

func TestVarLenBlocksDoNotOverlap(t *testing.T) {
	p, err := Build(varLenConfig())
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ lo, hi uint64 }
	var spans []span
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			b := &p.Funcs[fi].Blocks[bi]
			spans = append(spans, span{b.Addr, p.End(b)})
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("blocks overlap: [%#x,%#x) and [%#x,%#x)",
					spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
			}
		}
	}
}

func TestVarLenStreamContinuity(t *testing.T) {
	w, err := New(varLenConfig())
	if err != nil {
		t.Fatal(err)
	}
	var prev trace.Instr
	sawOdd := false
	for i := 0; i < 100000; i++ {
		in, _ := w.Next()
		if err := trace.Validate(in); err != nil {
			t.Fatalf("instr %d: %v", i, err)
		}
		if in.Size != 4 {
			sawOdd = true
		}
		if i > 0 && in.PC != prev.NextPC() {
			t.Fatalf("discontinuity at %d: %#x after %#x(+%d)",
				i, in.PC, prev.PC, prev.Size)
		}
		prev = in
	}
	if !sawOdd {
		t.Error("no non-4-byte instructions in a variable-length stream")
	}
}

func TestVarLenDeterminism(t *testing.T) {
	w1, _ := New(varLenConfig())
	w2, _ := New(varLenConfig())
	for i := 0; i < 20000; i++ {
		a, _ := w1.Next()
		b, _ := w2.Next()
		if a != b {
			t.Fatalf("instr %d differs", i)
		}
	}
}

func TestX86FamilyPreset(t *testing.T) {
	cfg, err := Preset(FamilyX86Server, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.VarLenISA {
		t.Error("x86 family not variable-length")
	}
	if cfg.Name != "x86-server_001" {
		t.Errorf("name %q", cfg.Name)
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Instructions must straddle 64B boundaries sometimes.
	straddle := false
	for i := 0; i < 50000; i++ {
		in, _ := w.Next()
		if in.PC&^63 != (in.EndPC()-1)&^63 {
			straddle = true
			break
		}
	}
	if !straddle {
		t.Error("no block-straddling instructions on the x86 family")
	}
}

func TestFixedISAUnchanged(t *testing.T) {
	// The fixed-size path must have no offsets table (memory) and 4-byte sizes.
	p, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := &p.Funcs[0].Blocks[0]
	if blockOffs(p, b) != nil {
		t.Error("fixed ISA block has offsets")
	}
	if p.InstrSize(b, 0) != 4 || p.InstrAddr(b, 1) != b.Addr+4 {
		t.Error("fixed ISA accessors wrong")
	}
}
