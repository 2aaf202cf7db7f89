package snap

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the decoder. It must never
// panic (flat values are written through computed offsets), and any
// input it accepts must re-encode to exactly the same bytes: the format
// has one encoding per value.
func FuzzUnmarshal(f *testing.F) {
	golden, err := hex.DecodeString(goldenSample)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var v outer
		if err := Unmarshal(data, &v); err != nil {
			return
		}
		again, err := Marshal(&v)
		if err != nil {
			t.Fatalf("re-encoding an accepted input: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently:\n in:  %x\n out: %x", data, again)
		}
	})
}
