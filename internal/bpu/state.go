package bpu

import "fmt"

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

// Restore installs a State captured from a predictor of the same
// geometry, after checking every table shape and the RAS top index.
func (b *BPU) Restore(src *State) error {
	if err := sameShape(src.Weights, b.st.Weights, "bpu weights"); err != nil {
		return err
	}
	if err := sameShape(src.BTBTags, b.st.BTBTags, "btb tags"); err != nil {
		return err
	}
	if err := sameShape(src.BTBTargets, b.st.BTBTargets, "btb targets"); err != nil {
		return err
	}
	if err := sameShape(src.BTBLRU, b.st.BTBLRU, "btb lru"); err != nil {
		return err
	}
	if len(src.Bias) != len(b.st.Bias) {
		return fmt.Errorf("bpu bias: snapshot has %d entries, predictor has %d", len(src.Bias), len(b.st.Bias))
	}
	if len(src.RAS) != len(b.st.RAS) {
		return fmt.Errorf("bpu ras: snapshot has %d entries, predictor has %d", len(src.RAS), len(b.st.RAS))
	}
	if src.RASTop < 0 || src.RASTop >= len(src.RAS) {
		return fmt.Errorf("bpu ras: snapshot top %d outside [0,%d)", src.RASTop, len(src.RAS))
	}
	copyState(&b.st, src)
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
