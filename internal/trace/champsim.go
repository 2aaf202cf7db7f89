package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// ChampSim trace ingestion.
//
// ChampSim traces are flat streams of fixed 64-byte little-endian records,
// one per committed instruction:
//
//	ip                    uint64    virtual address
//	is_branch             uint8     nonzero if the instruction is a branch
//	branch_taken          uint8     nonzero if the branch was taken
//	destination_registers [2]uint8  written architectural registers (0 = none)
//	source_registers      [4]uint8  read architectural registers (0 = none)
//	destination_memory    [2]uint64 store effective addresses (0 = none)
//	source_memory         [4]uint64 load effective addresses (0 = none)
//
// The format carries no branch class, no target, and no instruction size;
// all three are inferred, exactly as ChampSim itself does:
//
//   - Branch class comes from which special registers appear in the source
//     and destination sets (SP=6, FLAGS=25, IP=26): a branch reading FLAGS
//     is conditional; reading both IP and SP is a call (indirect if any
//     general register is also read); reading SP without IP is a return;
//     reading a general register without SP/FLAGS is an indirect jump; the
//     remainder are direct jumps. Unconditional classes are forced taken.
//   - Target and fall-through size come from one record of lookahead: the
//     next record's ip is the committed successor, so a taken branch's
//     Target is that ip, and a non-taken instruction's Size is the ip delta
//     when it lands in [1,15] bytes (else the 4-byte default stands).
//   - Dep1/Dep2 producer distances are reconstructed from a last-writer
//     table over the register file, capped at the uint16 range.
//
// Because of the lookahead, the final record of a non-looping stream is
// dropped: with no successor its target and size cannot be inferred.
type ChampSim struct {
	path string
	loop bool

	f  *os.File
	gz *gzip.Reader
	br *bufio.Reader

	buf  [champSimRecordBytes]byte
	pend Instr
	have bool

	// Last-writer table for dependence reconstruction: lastW[r] is the
	// stream index of the most recent record that wrote register r. The
	// table survives a loop reopen so the wrap seam sees the same producers
	// a real loop body would.
	idx   uint64
	lastW [256]uint64
	haveW [256]bool

	err error
}

const champSimRecordBytes = 64

// ChampSim x86 special register numbers (Pin REG enumeration).
const (
	champSimRegSP    = 6
	champSimRegFlags = 25
	champSimRegIP    = 26
)

// NewChampSim returns a ChampSim decoder over an uncompressed record
// stream. The returned source is finite: it ends when r does.
func NewChampSim(r io.Reader) *ChampSim {
	return &ChampSim{br: bufio.NewReaderSize(r, 1<<16)}
}

// OpenChampSim opens a ChampSim trace file. A ".gz" suffix selects gzip
// decompression; ".xz" and ".bz2" are rejected (decompress externally —
// the toolchain ships no xz codec). With loop set the trace replays
// forever, reopening the file at EOF, which turns short published traces
// into steady-state workloads like trace.Loop does for slices.
func OpenChampSim(path string, loop bool) (*ChampSim, error) {
	if strings.HasSuffix(path, ".xz") || strings.HasSuffix(path, ".bz2") {
		return nil, fmt.Errorf("trace: %s: compressed ChampSim traces must be .gz or decompressed externally (no xz/bz2 codec)", path)
	}
	c := &ChampSim{path: path, loop: loop}
	if err := c.open(); err != nil {
		return nil, err
	}
	return c, nil
}

// open (re)opens the backing file, replacing any previous handles.
func (c *ChampSim) open() error {
	if err := c.closeFile(); err != nil {
		return err
	}
	f, err := os.Open(c.path)
	if err != nil {
		return err
	}
	c.f = f
	if strings.HasSuffix(c.path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			c.f = nil
			return fmt.Errorf("trace: %s: %w", c.path, err)
		}
		c.gz = gz
		if c.br == nil {
			c.br = bufio.NewReaderSize(gz, 1<<16)
		} else {
			c.br.Reset(gz)
		}
	} else {
		if c.br == nil {
			c.br = bufio.NewReaderSize(f, 1<<16)
		} else {
			c.br.Reset(f)
		}
	}
	return nil
}

func (c *ChampSim) closeFile() error {
	var err error
	if c.gz != nil {
		err = c.gz.Close()
		c.gz = nil
	}
	if c.f != nil {
		if e := c.f.Close(); err == nil {
			err = e
		}
		c.f = nil
	}
	return err
}

// Close releases the underlying file when opened via OpenChampSim.
func (c *ChampSim) Close() error { return c.closeFile() }

// Err returns the terminal decode error, if any, excluding io.EOF.
func (c *ChampSim) Err() error {
	if c.err == io.EOF {
		return nil
	}
	return c.err
}

// Next implements Source. Each emitted instruction is the previously read
// record finalised against the current record's ip (see the type comment).
func (c *ChampSim) Next() (Instr, bool) {
	for {
		in, ok := c.readRecord()
		if !ok {
			if c.loop && c.err == io.EOF && c.have {
				if !c.reopen() {
					return Instr{}, false
				}
				continue
			}
			return Instr{}, false
		}
		if !c.have {
			c.pend, c.have = in, true
			continue
		}
		out := c.pend
		finalizeChampSim(&out, in.PC)
		c.pend = in
		return out, true
	}
}

// finalizeChampSim resolves the lookahead-dependent fields of in given the
// committed successor's address.
func finalizeChampSim(in *Instr, nextPC uint64) {
	if in.TakenBranch() {
		in.Target = nextPC
		return
	}
	if d := nextPC - in.PC; d >= 1 && d <= 15 {
		in.Size = uint8(d)
	}
}

// readRecord decodes one raw 64-byte record into a partially finalised
// Instr (Target/Size pending lookahead). It reports false at end of stream
// or on a decode error, recorded in c.err.
func (c *ChampSim) readRecord() (Instr, bool) {
	if c.err != nil {
		return Instr{}, false
	}
	if _, err := io.ReadFull(c.br, c.buf[:]); err != nil {
		if err == io.EOF {
			c.err = io.EOF
		} else {
			c.err = fmt.Errorf("trace: champsim record %d: %w", c.idx, err)
		}
		return Instr{}, false
	}

	var in Instr
	in.PC = binary.LittleEndian.Uint64(c.buf[0:8])
	in.Size = 4
	isBranch := c.buf[8] != 0
	taken := c.buf[9] != 0

	var readsSP, readsFlags, readsIP, readsOther bool
	for _, r := range c.buf[12:16] { // source_registers
		switch r {
		case 0:
		case champSimRegSP:
			readsSP = true
		case champSimRegFlags:
			readsFlags = true
		case champSimRegIP:
			readsIP = true
		default:
			readsOther = true
		}
	}

	if isBranch {
		switch {
		case readsFlags && !readsOther:
			in.Class = ClassCondBranch
			in.Taken = taken
		case readsSP && readsIP && readsOther:
			in.Class = ClassIndirectCall
		case readsSP && readsIP:
			in.Class = ClassCall
		case readsSP:
			in.Class = ClassReturn
		case readsOther:
			in.Class = ClassIndirectJump
		default:
			in.Class = ClassDirectJump
		}
		if in.Class.IsUnconditional() {
			in.Taken = true
		}
	} else {
		if a := binary.LittleEndian.Uint64(c.buf[32:40]); a != 0 { // source_memory[0]
			in.Class = ClassLoad
			in.MemAddr = a
		} else if a := binary.LittleEndian.Uint64(c.buf[16:24]); a != 0 { // destination_memory[0]
			in.Class = ClassStore
			in.MemAddr = a
		}
	}

	// Reconstruct the two nearest producer distances from the last-writer
	// table, then record this instruction's own writes.
	var d1, d2 uint64
	for _, r := range c.buf[12:16] {
		if r == 0 || r == champSimRegIP || !c.haveW[r] {
			continue
		}
		d := c.idx - c.lastW[r]
		if d < 1 || d > 0xffff || d == d1 || d == d2 {
			continue
		}
		switch {
		case d1 == 0 || d < d1:
			d1, d2 = d, d1
		case d2 == 0 || d < d2:
			d2 = d
		}
	}
	in.Dep1, in.Dep2 = uint16(d1), uint16(d2)
	for _, r := range c.buf[10:12] { // destination_registers
		if r != 0 && r != champSimRegIP {
			c.lastW[r] = c.idx
			c.haveW[r] = true
		}
	}
	c.idx++
	return in, true
}

// reopen restarts a looping trace after EOF. The dependence table and
// stream index persist across the seam so the wrap point sees producers
// from the previous pass, as a real loop body would.
func (c *ChampSim) reopen() bool {
	if c.path == "" {
		return false
	}
	c.err = nil
	if err := c.open(); err != nil {
		c.err = err
		return false
	}
	return true
}
