package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"ubscache/internal/ubs"
	"ubscache/internal/workload"
)

// TestDesignIDFoldsAliases: the Table II UBS goes by four names across
// Figures 10, 11, 15 and 16. They share one ID, and the machine they
// build is one machine: on spec_001 their results differ only in the
// Design label.
func TestDesignIDFoldsAliases(t *testing.T) {
	wcfg, err := workload.Preset(workload.FamilySPEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Warmup = 5_000
	p.Measure = 20_000
	var id string
	var want []byte
	for _, name := range []string{"ubs", "ubs:32", "ubs-16way-c1", "ubs-pred-direct-64"} {
		d, err := ParseDesign(name)
		if err != nil {
			t.Fatal(err)
		}
		if id == "" {
			id = d.ID
		} else if d.ID != id {
			t.Errorf("%s: ID %s, want %s", name, d.ID, id)
		}
		res, err := Run(p, wcfg, d.Name, d.Factory)
		if err != nil {
			t.Fatal(err)
		}
		res.Design = ""
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: result differs from ubs's beyond its Design label", name)
		}
	}
}

// TestDesignIDSeparatesMachines: designs that build different machines
// get different IDs, also where they share a display name (the lat-40
// conv is named conv-32KB) or differ only in policy or admission.
func TestDesignIDSeparatesMachines(t *testing.T) {
	for _, pair := range [][2]string{
		{"conv:32", `{"kind":"conv","config":{"lat":40}}`},
		{"conv:32", "acic"},
		{"conv:32", "ghrp"},
		{"ubs", "ubs:64"},
		{"smallblock16", "smallblock32"},
	} {
		a, b := MustDesign(pair[0]), MustDesign(pair[1])
		if a.ID == b.ID {
			t.Errorf("%s and %s share ID %s", pair[0], pair[1], a.ID)
		}
	}
	// The name is display-only: renaming a machine keeps its ID, and an
	// explicit lru policy is the default.
	for _, pair := range [][2]string{
		{"conv:32", `{"kind":"conv","config":{"name":"base"}}`},
		{"conv:32", `{"kind":"conv","config":{"policy":"lru"}}`},
		{"distill", `{"kind":"distill","config":{"name":"ld"}}`},
	} {
		a, b := MustDesign(pair[0]), MustDesign(pair[1])
		if a.ID != b.ID {
			t.Errorf("%s and %s: IDs %s and %s, want one", pair[0], pair[1], a.ID, b.ID)
		}
	}
}

// TestDesignIDEverywhere: every documented shorthand and every kind's
// zero spec resolve to a Design with an ID.
func TestDesignIDEverywhere(t *testing.T) {
	names := []string{"conv32", "conv64", "conv:16", "conv:128", "ghrp", "acic",
		"ubs", "ubs:20", "smallblock16", "smallblock32", "smallblock64", "distill"}
	for _, v := range ubs.PredictorVariants {
		names = append(names, "ubs-pred-"+v.Name)
	}
	for _, wc := range ubs.WayConfigs {
		names = append(names, fmt.Sprintf("ubs-%dway-c%d", wc.Ways, wc.Variant))
	}
	for _, name := range names {
		d, err := ParseDesign(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if d.ID == "" {
			t.Errorf("%s: empty ID", name)
		}
	}
	for _, kind := range DesignKinds() {
		d, err := ResolveDesign(DesignSpec{Kind: kind})
		if err != nil {
			t.Errorf("kind %s: %v", kind, err)
		} else if d.ID == "" {
			t.Errorf("kind %s: empty ID", kind)
		}
	}
}
