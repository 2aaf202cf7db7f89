// Package trace mirrors the repository's trace-ingestion layer: inside
// the determinism scope (path suffix internal/trace) because an imported
// trace feeds simulations byte-for-byte — decode must be a pure function
// of the input file.
package trace

import (
	"fmt"
	"os"
	"time"
)

// Record is a decoded instruction record.
type Record struct {
	PC   uint64
	Size uint8
}

// Decode is the legal shape: a pure function of the record bytes.
func Decode(buf []byte) Record {
	var pc uint64
	for i := 0; i < 8; i++ {
		pc |= uint64(buf[i]) << (8 * i)
	}
	return Record{PC: pc, Size: 4}
}

// StampImport tags an imported trace with the host clock: import
// metadata must come from the trace contents, not the wall clock.
func StampImport() int64 {
	return time.Now().Unix() // want `time\.Now in the simulation core`
}

// ReportProgress is decode-rate telemetry on stderr: even metadata-only
// clock reads belong in the orchestration layers, not the decoder.
func ReportProgress(records uint64, start time.Time) {
	fmt.Fprintf(os.Stderr, "%d records in %s\n", records, time.Since(start)) // want `time\.Since in the simulation core`
}
