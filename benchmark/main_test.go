package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"fastnet/internal/graph"
)

// Every package under internal/ must have a layer, so no frame of the
// system under test falls silently into other_share.
func TestLayerTableCoversEveryPackage(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, l := range layers {
		known[l.name] = true
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		n++
		pl, ok := layerTable[e.Name()]
		if !ok {
			t.Errorf("package internal/%s has no entry in layerTable", e.Name())
			continue
		}
		if !known[pl.layer] {
			t.Errorf("package internal/%s maps to unknown layer %q", e.Name(), pl.layer)
		}
		for fn, l := range pl.funcs {
			if !known[l] {
				t.Errorf("internal/%s.%s maps to unknown layer %q", e.Name(), fn, l)
			}
		}
	}
	if n == 0 {
		t.Fatal("no packages found under ../internal")
	}
}

func TestClassify(t *testing.T) {
	const m = "fastnet/internal/"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.newobject", m + "topology.(*DB).Update"}, "runtime.gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.growslice", m + "topology.(*Flood).relay"}, "runtime.malloc"},
		{[]string{"runtime.memmove", m + "sim.(*Network).stepHop", m + "sim.(*Network).dispatch"}, "sim.hop"},
		{[]string{m + "sim.(*eventHeap).push", m + "sim.(*Network).push"}, "sim.spine"},
		{[]string{m + "sim.(*shardGroup).run.func1", "runtime.goexit"}, "sim.shard"},
		{[]string{m + "anr.Header.HopCount", m + "sim.(*Network).route"}, "sim.hop"},
		{[]string{m + "graph.(*Graph).BFSTreeInto", m + "graph.(*Graph).BFSTree", m + "load.NewPairTable.func1", m + "load.NewPairTable"}, "load.pairtable"},
		{[]string{m + "graph.(*Graph).BFSTreeInto", m + "topology.(*DB).BFSTree", m + "topology.(*Broadcast).computeRoutes"}, "topology.routing"},
		{[]string{"math/rand.(*Rand).Float64", m + "graph.GNP", "main.(*flood).setup"}, "graph"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", m + "topology.(*Flood).Deliver"}, "topology.handler"},
		{[]string{m + "load.(*wheel).peekCompute", m + "load.(*engine).run"}, "load.plane"},
		{[]string{m + "election.(*Node).Deliver"}, "election"},
		{[]string{"runtime.nanotime", "time.Since", "main.now", "main.(*timedProto).Deliver", m + "sim.(*Network).dispatch"}, "other"},
		{[]string{"runtime.futex", "runtime.notewakeup"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// The bucketing must read a profile written by runtime/pprof, and charge a
// module function's samples to its layer.
func TestLayerSamplesParsesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for seed := int64(0); time.Now().Before(deadline); seed++ {
		graph.GNP(512, 0.05, seed)
	}
	pprof.StopCPUProfile()
	prof := newTally()
	if err := prof.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if prof.total < 10 {
		t.Fatalf("only %d samples in half a second of CPU work: %v", prof.total, prof.layers)
	}
	if prof.layers["graph"] == 0 {
		t.Errorf("no samples charged to graph while generating graphs: %v", prof.layers)
	}
	if prof.cum["fastnet/internal/graph.GNP"] == 0 {
		t.Errorf("graph.GNP never on a sampled stack: %v", prof.cum)
	}
	if err := newTally().add([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

// Every metric name matches the contract's pattern, carries a unit, is used
// once, and matches the lists in BENCHMARK.json.
func TestMetricNamesAndUnits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want []struct{ Name, Unit string }) {
		seen := make(map[string]bool)
		for _, m := range got {
			if !name.MatchString(m.Name) {
				t.Errorf("%s metric name %q does not match %s", kind, m.Name, name)
			}
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s metric %s has unit %q", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s metric %s listed twice", kind, m.Name)
			}
			seen[m.Name] = true
		}
		if len(got) != len(want) {
			t.Errorf("%s: benchmark emits %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s metric %d: emitted %s [%s], BENCHMARK.json has %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndMetrics, spec.EndToEnd)
	check("per_layer", perLayerMetrics, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// One instance of every workload passes its checks, and running it again,
// traced, reproduces every counter: determinism and tracing transparency.
func TestRepsAreDeterministicAndTracingTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runRep(w, 7, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.out.failed > 0 {
				t.Fatalf("%d of %d ops failed: %s", plain.out.failed, plain.out.ops, plain.out.note)
			}
			traced, err := runRep(w, 7, 0, newTracer(), newRuntimeLedger())
			if err != nil {
				t.Fatal(err)
			}
			if d := diffCounters(plain.out.counters, traced.out.counters); d != "" {
				t.Errorf("traced run differs: %s", d)
			}
			if w.decorated && traced.out.deliver <= 0 {
				t.Error("traced run recorded no Deliver time")
			}
		})
	}
}
