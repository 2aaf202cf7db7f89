package bpu

import "fmt"

// State is the predictor's mutable state, the form the BPU keeps it in
// and the checkpoint stores: the perceptron weight tables (flat,
// table-major: Tables x TableEntries) and bias, the global history, the
// BTB arrays (flat, set-major: sets x ways; tag 0 = invalid), and the
// return address stack. Geometry (table count/size, BTB shape, RAS
// depth) is configuration; RestoreInPlace requires a BPU built from the
// same Config.
type State struct {
	Weights    []int8
	Bias       []int8
	History    uint64
	BTBTags    []uint64
	BTBTargets []uint64
	BTBLRU     []uint32
	BTBClock   uint32
	RAS        []uint64
	RASTop     int
	Stats      Stats
}

// Snapshot copies the predictor's mutable state into dst; dst shares no
// memory with the predictor.
func (b *BPU) Snapshot(dst *State) { copyState(dst, &b.st) }

// RestoreInPlace installs a State captured from a predictor of the same
// geometry: fill decodes it into the predictor's own State, in place,
// and every table length and the RAS top index are then checked. A
// failed RestoreInPlace leaves the predictor unusable.
func (b *BPU) RestoreInPlace(fill func(any) error) error {
	want := b.st
	if err := fill(&b.st); err != nil {
		return err
	}
	return check(&b.st, &want)
}

// check validates an image against want, the predictor's state as built.
func check(src, want *State) error {
	for _, t := range []struct {
		what      string
		got, want int
	}{
		{"bpu weights", len(src.Weights), len(want.Weights)},
		{"bpu bias", len(src.Bias), len(want.Bias)},
		{"btb tags", len(src.BTBTags), len(want.BTBTags)},
		{"btb targets", len(src.BTBTargets), len(want.BTBTargets)},
		{"btb lru", len(src.BTBLRU), len(want.BTBLRU)},
		{"bpu ras", len(src.RAS), len(want.RAS)},
	} {
		if t.got != t.want {
			return fmt.Errorf("%s: snapshot has %d entries, predictor has %d", t.what, t.got, t.want)
		}
	}
	if src.RASTop < 0 || src.RASTop >= len(src.RAS) {
		return fmt.Errorf("bpu ras: snapshot top %d outside [0,%d)", src.RASTop, len(src.RAS))
	}
	return nil
}

// copyState deep-copies src into dst, reusing dst's backing arrays.
func copyState(dst, src *State) {
	old := *dst
	*dst = *src
	dst.Weights = append(old.Weights[:0], src.Weights...)
	dst.Bias = append(old.Bias[:0], src.Bias...)
	dst.BTBTags = append(old.BTBTags[:0], src.BTBTags...)
	dst.BTBTargets = append(old.BTBTargets[:0], src.BTBTargets...)
	dst.BTBLRU = append(old.BTBLRU[:0], src.BTBLRU...)
	dst.RAS = append(old.RAS[:0], src.RAS...)
}
