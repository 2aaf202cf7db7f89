// Command tracegen materialises synthetic workloads into UBST trace files,
// converts foreign trace formats, and inspects existing traces.
//
//	tracegen -list                                # all workload names
//	tracegen -workload server_001 -n 5000000 -o server_001.ubst.gz
//	tracegen convert -i trace.champsim.gz -o trace.ubst.gz
//	tracegen convert -i trace.champsim -o out.ubst -n 1000000
//	tracegen inspect server_001.ubst.gz           # summary statistics
//	tracegen inspect a.champsim b.ubst.gz         # mixed formats by extension
//
// Input formats are inferred from the file name: a path containing
// ".champsim" is decoded as a ChampSim trace (64-byte records, optionally
// gzip-compressed); anything else is read as UBST. ChampSim .xz traces must
// be decompressed externally first (the Go standard library has no xz
// codec).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ubscache/internal/trace"
	"ubscache/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "convert":
			runConvert(os.Args[2:])
			return
		case "inspect":
			runInspect(os.Args[2:])
			return
		}
	}
	generateMain()
}

// runConvert decodes a foreign-format trace (ChampSim by extension) and
// re-encodes it as UBST.
func runConvert(args []string) {
	fs := flag.NewFlagSet("tracegen convert", flag.ExitOnError)
	in := fs.String("i", "", "input trace (.champsim[.gz] decodes as ChampSim, else UBST)")
	out := fs.String("o", "", "output file (.ubst or .ubst.gz)")
	n := fs.Uint64("n", 0, "instruction limit (0 = the whole trace)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: tracegen convert -i <trace> -o <file.ubst[.gz]> [-n N]")
		os.Exit(2)
	}
	src, err := openTrace(*in)
	if err != nil {
		fatal(err)
	}
	defer src.Close()
	var limited trace.Source = src
	if *n > 0 {
		limited = trace.NewLimit(src, *n)
	}
	written, err := trace.WriteAll(*out, limited)
	if err != nil {
		fatal(err)
	}
	if err := src.Err(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d instructions to %s\n", written, *out)
}

// runInspect summarises one or more trace files, formats inferred per file.
func runInspect(args []string) {
	fs := flag.NewFlagSet("tracegen inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracegen inspect <trace>...")
		os.Exit(2)
	}
	inspectFiles(fs.Args())
}

// traceFile is the common surface of the UBST reader and the ChampSim
// decoder: a Source with an error report and a close.
type traceFile interface {
	trace.Source
	Err() error
	Close() error
}

// openTrace opens path with the decoder its name implies.
func openTrace(path string) (traceFile, error) {
	if strings.Contains(path, ".champsim") {
		return trace.OpenChampSim(path, false)
	}
	return trace.Open(path)
}

// inspectFiles measures each file with one shared BlockSet: the footprint
// map's storage is reset and reused per trace instead of rebuilt per
// invocation.
func inspectFiles(paths []string) {
	var blocks trace.BlockSet
	for _, path := range paths {
		r, err := openTrace(path)
		if err != nil {
			fatal(err)
		}
		st := trace.MeasureInto(r, ^uint64(0), &blocks)
		if err := r.Err(); err != nil {
			r.Close()
			fatal(err)
		}
		r.Close()
		printStats(path, st)
	}
}

// generateMain lists the synthetic workloads or materialises one into a
// trace file (-list, -workload).
func generateMain() {
	var (
		list = flag.Bool("list", false, "list workload names and exit")
		wl   = flag.String("workload", "", "workload to materialise")
		n    = flag.Uint64("n", 1_000_000, "instructions to emit")
		out  = flag.String("o", "", "output file (.ubst or .ubst.gz)")
	)
	flag.Parse()

	switch {
	case *list:
		for _, fam := range workload.Families() {
			fmt.Printf("%s (%d):", fam, workload.FamilyCounts[fam])
			for _, name := range workload.Names(fam) {
				fmt.Printf(" %s", name)
			}
			fmt.Println()
		}
	case *wl != "":
		cfg, err := workload.ByName(*wl)
		if err != nil {
			fatal(err)
		}
		w, err := workload.New(cfg)
		if err != nil {
			fatal(err)
		}
		if *out == "" {
			// Dry run: just measure.
			var blocks trace.BlockSet
			st := trace.MeasureInto(w, *n, &blocks)
			printStats(*wl, st)
			return
		}
		written, err := trace.WriteAll(*out, trace.NewLimit(w, *n))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d instructions to %s\n", written, *out)
	default:
		fmt.Fprintln(os.Stderr, "usage: tracegen -list | -workload <name> [-n N] [-o file] | convert -i <trace> -o <file> | inspect <file>...")
		os.Exit(2)
	}
}

func printStats(name string, st trace.Stats) {
	fmt.Printf("%s: %d instructions\n", name, st.Count)
	fmt.Printf("  branches: %d (%.1f%%), taken %.1f%%, conditional %d, calls %d, returns %d\n",
		st.Branches, 100*float64(st.Branches)/float64(st.Count),
		100*float64(st.Taken)/float64(st.Branches), st.Conditional, st.Calls, st.Returns)
	fmt.Printf("  loads: %d  stores: %d\n", st.Loads, st.Stores)
	fmt.Printf("  PC range: [%#x, %#x]  code footprint: %d KB (%d blocks)\n",
		st.MinPC, st.MaxPC, st.Footprint()>>10, st.UniqueBlocks)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
