package bpu

import (
	"fmt"
	"slices"
)

// State is the predictor's mutable state, the form the BPU keeps it in
// and the checkpoint stores: the perceptron weight tables
// ([table][entry]) and bias, the global history, the BTB arrays
// ([set][way], tag 0 = invalid), and the return address stack. Geometry
// (table count/size, BTB shape, RAS depth) is configuration; Restore
// requires a BPU built from the same Config.
type State struct {
	Weights    [][]int8
	Bias       []int8
	History    uint64
	BTBTags    [][]uint64
	BTBTargets [][]uint64
	BTBLRU     [][]uint32
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
// and every table shape and the RAS top index are then checked. A failed
// RestoreInPlace leaves the predictor unusable.
func (b *BPU) RestoreInPlace(fill func(any) error) error {
	// fill may replace the tables' rows in their backing arrays; the
	// shape the checks compare against keeps its own row headers.
	want := b.st
	want.Weights = slices.Clone(want.Weights)
	want.BTBTags = slices.Clone(want.BTBTags)
	want.BTBTargets = slices.Clone(want.BTBTargets)
	want.BTBLRU = slices.Clone(want.BTBLRU)
	if err := fill(&b.st); err != nil {
		return err
	}
	return check(&b.st, &want)
}

// check validates an image against want, the predictor's state as built.
func check(src, want *State) error {
	if err := sameShape(src.Weights, want.Weights, "bpu weights"); err != nil {
		return err
	}
	if err := sameShape(src.BTBTags, want.BTBTags, "btb tags"); err != nil {
		return err
	}
	if err := sameShape(src.BTBTargets, want.BTBTargets, "btb targets"); err != nil {
		return err
	}
	if err := sameShape(src.BTBLRU, want.BTBLRU, "btb lru"); err != nil {
		return err
	}
	if len(src.Bias) != len(want.Bias) {
		return fmt.Errorf("bpu bias: snapshot has %d entries, predictor has %d", len(src.Bias), len(want.Bias))
	}
	if len(src.RAS) != len(want.RAS) {
		return fmt.Errorf("bpu ras: snapshot has %d entries, predictor has %d", len(src.RAS), len(want.RAS))
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
	dst.Weights = copy2D(old.Weights, src.Weights)
	dst.Bias = append(old.Bias[:0], src.Bias...)
	dst.BTBTags = copy2D(old.BTBTags, src.BTBTags)
	dst.BTBTargets = copy2D(old.BTBTargets, src.BTBTargets)
	dst.BTBLRU = copy2D(old.BTBLRU, src.BTBLRU)
	dst.RAS = append(old.RAS[:0], src.RAS...)
}

// copy2D deep-copies src into dst row by row, reusing dst's rows where
// their capacity allows, and returns the copy.
func copy2D[T any](dst, src [][]T) [][]T {
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
func sameShape[T any](got, want [][]T, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: snapshot has %d rows, target has %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s: row %d has %d entries, target has %d", what, i, len(got[i]), len(want[i]))
		}
	}
	return nil
}
