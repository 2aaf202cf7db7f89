package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Binary trace format ("UBST"):
//
//	magic   [4]byte  "UBST"
//	version uint8    currently 1
//	flags   uint8    bit0: reserved
//	count   uvarint  number of instructions (0 = unknown / streamed)
//	records ...      one per instruction
//
// Each record is delta-compressed against the previous instruction:
//
//	head    uint8    class(4 bits) | taken(1) | hasMem(1) | hasDeps(1) | pcIsSeq(1)
//	size    uint8
//	pc      uvarint  zig-zag delta from previous NextPC, omitted if pcIsSeq
//	target  uvarint  zig-zag delta from PC, only for branches
//	memAddr uvarint  zig-zag delta from previous memAddr, only if hasMem
//	dep1    uvarint  only if hasDeps
//	dep2    uvarint  only if hasDeps
//
// The format is gzip-wrapped when the file name ends in ".gz".

const (
	fileMagic   = "UBST"
	fileVersion = 1
)

// ErrBadFormat is returned when a trace file fails structural validation.
var ErrBadFormat = errors.New("trace: bad file format")

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer encodes instructions into the UBST binary format.
type Writer struct {
	w      *bufio.Writer
	gz     *gzip.Writer
	closer io.Closer
	prev   Instr
	first  bool
	count  uint64
	buf    [binary.MaxVarintLen64]byte
	err    error
}

// NewWriter returns a Writer emitting to w. If compress is true the stream
// is gzip-wrapped. The header is written immediately.
func NewWriter(w io.Writer, compress bool) (*Writer, error) {
	tw := &Writer{first: true}
	if compress {
		tw.gz = gzip.NewWriter(w)
		tw.w = bufio.NewWriter(tw.gz)
	} else {
		tw.w = bufio.NewWriter(w)
	}
	if _, err := tw.w.WriteString(fileMagic); err != nil {
		return nil, err
	}
	if err := tw.w.WriteByte(fileVersion); err != nil {
		return nil, err
	}
	if err := tw.w.WriteByte(0); err != nil { // flags
		return nil, err
	}
	// Count is streamed as 0 (unknown); readers count records themselves.
	if err := tw.putUvarint(0); err != nil {
		return nil, err
	}
	return tw, nil
}

// Create opens (creating/truncating) a trace file. A ".gz" suffix selects
// gzip compression. Close the returned writer to flush.
func Create(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	tw, err := NewWriter(f, strings.HasSuffix(path, ".gz"))
	if err != nil {
		f.Close()
		return nil, err
	}
	tw.closer = f
	return tw, nil
}

func (w *Writer) putUvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write appends one instruction to the trace.
func (w *Writer) Write(in Instr) error {
	if w.err != nil {
		return w.err
	}
	if err := Validate(in); err != nil {
		return err
	}
	head := uint8(in.Class) & 0x0f
	if in.Taken {
		head |= 1 << 4
	}
	hasMem := in.Class.IsMem()
	if hasMem {
		head |= 1 << 5
	}
	hasDeps := in.Dep1 != 0 || in.Dep2 != 0
	if hasDeps {
		head |= 1 << 6
	}
	pcIsSeq := !w.first && in.PC == w.prev.NextPC()
	if pcIsSeq {
		head |= 1 << 7
	}
	w.err = w.w.WriteByte(head)
	if w.err == nil {
		w.err = w.w.WriteByte(in.Size)
	}
	if w.err == nil && !pcIsSeq {
		base := uint64(0)
		if !w.first {
			base = w.prev.NextPC()
		}
		w.err = w.putUvarint(zigzag(int64(in.PC - base)))
	}
	if w.err == nil && in.Class.IsBranch() {
		w.err = w.putUvarint(zigzag(int64(in.Target - in.PC)))
	}
	if w.err == nil && hasMem {
		w.err = w.putUvarint(zigzag(int64(in.MemAddr - w.prev.MemAddr)))
	}
	if w.err == nil && hasDeps {
		w.err = w.putUvarint(uint64(in.Dep1))
		if w.err == nil {
			w.err = w.putUvarint(uint64(in.Dep2))
		}
	}
	if w.err != nil {
		return w.err
	}
	if hasMem {
		w.prev.MemAddr = in.MemAddr
	}
	prevMem := w.prev.MemAddr
	w.prev = in
	if !hasMem {
		w.prev.MemAddr = prevMem
	}
	w.first = false
	w.count++
	return nil
}

// Count returns the number of instructions written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes buffers and closes underlying files opened by Create.
func (w *Writer) Close() error {
	err := w.w.Flush()
	if w.gz != nil {
		if e := w.gz.Close(); err == nil {
			err = e
		}
	}
	if w.closer != nil {
		if e := w.closer.Close(); err == nil {
			err = e
		}
	}
	if w.err != nil && err == nil {
		err = w.err
	}
	return err
}

// Reader decodes a UBST trace stream. It implements Source.
type Reader struct {
	r      *bufio.Reader
	gz     *gzip.Reader
	closer io.Closer
	prev   Instr
	first  bool
	err    error
}

// NewReader returns a Reader over w's output. Set compressed if the stream
// is gzip-wrapped.
func NewReader(r io.Reader, compressed bool) (*Reader, error) {
	tr := &Reader{first: true}
	if compressed {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, err
		}
		tr.gz = gz
		tr.r = bufio.NewReader(gz)
	} else {
		tr.r = bufio.NewReader(r)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if hdr[4] != fileVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, hdr[4])
	}
	if _, err := binary.ReadUvarint(tr.r); err != nil { // count (ignored)
		return nil, fmt.Errorf("%w: missing count: %v", ErrBadFormat, err)
	}
	return tr, nil
}

// Open opens a trace file written by Create. A ".gz" suffix selects gzip.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := NewReader(f, strings.HasSuffix(path, ".gz"))
	if err != nil {
		f.Close()
		return nil, err
	}
	tr.closer = f
	return tr, nil
}

// Read decodes the next instruction. It returns io.EOF at end of stream,
// and an error wrapping ErrBadFormat for a record that fails Validate.
// Errors are sticky: every later Read returns the same one.
func (r *Reader) Read() (Instr, error) {
	if r.err != nil {
		return Instr{}, r.err
	}
	head, err := r.r.ReadByte()
	if err != nil {
		r.err = err
		return Instr{}, err
	}
	size, err := r.r.ReadByte()
	if err != nil {
		r.err = unexpected(err)
		return Instr{}, r.err
	}
	var in Instr
	in.Class = Class(head & 0x0f)
	in.Taken = head&(1<<4) != 0
	hasMem := head&(1<<5) != 0
	hasDeps := head&(1<<6) != 0
	pcIsSeq := head&(1<<7) != 0
	in.Size = size
	if pcIsSeq {
		in.PC = r.prev.NextPC()
	} else {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = unexpected(err)
			return Instr{}, r.err
		}
		base := uint64(0)
		if !r.first {
			base = r.prev.NextPC()
		}
		in.PC = base + uint64(unzigzag(d))
	}
	if in.Class.IsBranch() {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = unexpected(err)
			return Instr{}, r.err
		}
		in.Target = in.PC + uint64(unzigzag(d))
	}
	in.MemAddr = 0
	if hasMem {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = unexpected(err)
			return Instr{}, r.err
		}
		in.MemAddr = r.prev.MemAddr + uint64(unzigzag(d))
	}
	if hasDeps {
		d1, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = unexpected(err)
			return Instr{}, r.err
		}
		d2, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = unexpected(err)
			return Instr{}, r.err
		}
		in.Dep1 = uint16(d1)
		in.Dep2 = uint16(d2)
	}
	// Writer.Write refuses what Validate rejects, so such a record is
	// damage, and passing it on would break the simulator's invariants
	// (a zero-size instruction, say) far from the file.
	if err := Validate(in); err != nil {
		r.err = fmt.Errorf("%w: %v", ErrBadFormat, err)
		return Instr{}, r.err
	}
	prevMem := r.prev.MemAddr
	r.prev = in
	if !hasMem {
		r.prev.MemAddr = prevMem
	}
	r.first = false
	return in, nil
}

// Next implements Source over the file stream.
func (r *Reader) Next() (Instr, bool) {
	in, err := r.Read()
	if err != nil {
		return Instr{}, false
	}
	return in, true
}

// Err returns the terminal error, if any, excluding io.EOF.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Close closes the underlying file if the Reader was produced by Open.
func (r *Reader) Close() error {
	var err error
	if r.gz != nil {
		err = r.gz.Close()
	}
	if r.closer != nil {
		if e := r.closer.Close(); err == nil {
			err = e
		}
	}
	return err
}

func unexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// WriteAll writes every instruction from src to a new trace file at path.
// It returns the number of instructions written.
func WriteAll(path string, src Source) (uint64, error) {
	w, err := Create(path)
	if err != nil {
		return 0, err
	}
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(in); err != nil {
			w.Close()
			return w.Count(), err
		}
	}
	return w.Count(), w.Close()
}

// ReadAll reads an entire trace file into memory.
func ReadAll(path string) ([]Instr, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []Instr
	for {
		in, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, in)
	}
}
