package snap

import (
	"encoding/hex"
	"testing"
)

// goldenSample is Marshal(sample()) as the codec has always encoded it.
// The round-trip tests cannot see a format change that is the same on
// both sides; this literal can.
const goldenSample = "01fbd4fe90eefeff0000000000ffffff2a00000000000000c860ea00286bee00000000000000100000c03f00000000000002c00500000068656c6c6f030000000102030700000008000000090000000b0000000000000002000000000000000000e03f000000000000d03f0163000000000000000000000000030000000200000001ff00000000010000007f"

func TestGoldenBytes(t *testing.T) {
	in := sample()
	got, err := Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	if h := hex.EncodeToString(got); h != goldenSample {
		t.Fatalf("wire format changed:\n got:  %s\n want: %s", h, goldenSample)
	}
}
