// Command ubslint checks the repository's simulator invariants with the
// go/analysis suite in internal/analysis: one syntactic rule (misspath)
// and three CFG-dataflow rules (determinism, ctxleak, mutexguard). The
// //ubs:state marker on sim.MachineState only names a determinism sink:
// the checkpoint image no wall-clock value may reach. It is a go vet
// tool:
//
//	go build -o /tmp/ubslint ./cmd/ubslint
//	go vet -vettool=/tmp/ubslint ./...
//	go vet -vettool=/tmp/ubslint -misspath ./internal/...  # one analyzer
//	go vet -vettool=/tmp/ubslint -json ./...                # machine-readable
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"ubscache/internal/analysis/ubslint"
)

func main() { unitchecker.Main(ubslint.Analyzers()...) }
