package ubscache_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"ubscache"
)

// Example demonstrates the basic simulate-and-compare flow on a tiny run.
func Example() {
	w, err := ubscache.ParseWorkload("spec_001")
	if err != nil {
		log.Fatal(err)
	}
	opts := ubscache.Quick()
	opts.Warmup = 20_000
	opts.Measure = 50_000

	rep, err := ubscache.SimulateWorkload(ubscache.UBS(), w, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Workload, rep.Design, rep.Core.Instructions >= 50_000)
	// Output:
	// spec_001 ubs true
}

// ExampleSimulateContext runs a simulation under a context deadline; the
// run is cancelled between heartbeat intervals if the deadline expires.
func ExampleSimulateContext() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	w, err := ubscache.ParseWorkload("client_001")
	if err != nil {
		log.Fatal(err)
	}
	opts := ubscache.Quick()
	opts.Warmup = 20_000
	opts.Measure = 50_000

	rep, err := ubscache.SimulateWorkloadContext(ctx, ubscache.UBS(), w, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep.Design, rep.Core.Instructions >= 50_000)
	// Output:
	// ubs true
}

// ExampleRunExperiment regenerates one paper artifact with the
// options-first experiment API.
func ExampleRunExperiment() {
	opts := ubscache.Quick()
	opts.Warmup = 20_000
	opts.Measure = 50_000

	out, err := ubscache.RunExperiment("table2", ubscache.ExperimentOptions{
		Options:   opts,
		PerFamily: 1, // one workload per family keeps the run short
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out) > 0)
	// Output:
	// true
}

// ExampleParseDesign resolves designs through the registry: shorthand
// names (the `ubsim -design` grammar) and declarative JSON specs both
// reach the same registered builders.
func ExampleParseDesign() {
	d, err := ubscache.ParseDesign("ubs:64")
	if err != nil {
		log.Fatal(err)
	}
	inline, err := ubscache.ParseDesign(`{"kind":"conv","config":{"policy":"ghrp"}}`)
	if err != nil {
		log.Fatal(err)
	}
	spec := ubscache.DesignSpec{Kind: "smallblock", Config: []byte(`{"block_size":32}`)}
	sb, err := ubscache.ResolveDesign(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d.Name, inline.Name, sb.Name)
	fmt.Println(ubscache.DesignKinds())
	// Output:
	// ubs-64KB ghrp conv-32B-block
	// [conv distill smallblock ubs]
}

// ExampleUBSCustom shows how to explore a non-default UBS configuration.
func ExampleUBSCustom() {
	cfg := ubscache.DefaultUBSConfig()
	cfg.Name = "my-ubs"
	cfg.WaySizes = []int{8, 16, 32, 64, 64}
	cfg.PlacementWindow = 2
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.Name, len(cfg.WaySizes), cfg.DataBytesPerSet())
	// Output:
	// my-ubs 5 184
}

// ExampleParseWorkload resolves workloads through the registry —
// symmetric to ExampleParseDesign: shorthand names (the `ubsim -workload`
// grammar) and declarative JSON specs both reach the same registered
// builders. A bare preset name remains a valid shorthand.
func ExampleParseWorkload() {
	w, err := ubscache.ParseWorkload("preset:server_003")
	if err != nil {
		log.Fatal(err)
	}
	bare, err := ubscache.ParseWorkload("server_003")
	if err != nil {
		log.Fatal(err)
	}
	spec := ubscache.WorkloadSpec{Kind: "mix", Config: []byte(`{
		"seed": 7,
		"clients": [
			{"preset": "server_001", "weight": 2, "arrival": {"process": "poisson"}},
			{"preset": "client_001", "arrival": {"process": "gamma", "cv": 3}}
		]
	}`)}
	mix, err := ubscache.ResolveWorkload(spec)
	if err != nil {
		log.Fatal(err)
	}
	_, generator := w.Config()
	fmt.Println(w.Name, w.Name == bare.Name, generator)
	fmt.Println(mix.Spec.Kind, len(mix.Name) > 0)
	fmt.Println(ubscache.WorkloadKinds())
	// Output:
	// server_003 true true
	// mix true
	// [champsim config mix preset trace]
}

// ExampleWorkloadNames lists the preset server workloads.
func ExampleWorkloadNames() {
	names := ubscache.WorkloadNames(ubscache.FamilyServer)
	fmt.Println(names[0], names[1], len(names) >= 8)
	// Output:
	// server_001 server_002 true
}

// ExampleNewSource streams raw instructions from a workload.
func ExampleNewSource() {
	w, err := ubscache.ParseWorkload("client_001")
	if err != nil {
		log.Fatal(err)
	}
	cfg, _ := w.Config() // a preset is generator-backed
	src, err := ubscache.NewSource(cfg)
	if err != nil {
		log.Fatal(err)
	}
	in, ok := src.Next()
	fmt.Println(ok, in.Size, in.PC != 0)
	// Output:
	// true 4 true
}
