package sim_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// The tests in this file are the determinism contract of the sharded
// space-parallel engine: a run under WithShards(p) must produce byte-
// identical observables — trace stream, metrics, finish time, per-node
// delivery/busy vectors, per-node trace projections — for every p >= 1.
// WithShards(1) is the serial reference execution of the shard-mode stream
// contract; the suite compares it against multi-shard runs over the golden
// scenarios, a driver-heavy epoch scenario, and a fuzzer.

var shardCounts = []int{2, 3, 4, 8}

// TestShardDifferential runs every golden scenario under the shard-mode
// serial reference and under 2/3/4/8 shards and requires identical hashes.
// (The C = 0 scenario collapses to one shard for every p — the documented
// serial fallback — so it checks option composition rather than parallelism;
// the C >= 1 scenarios partition for real.)
func TestShardDifferential(t *testing.T) {
	for name, run := range goldenScenarios() {
		serial := run(t, sim.WithShards(1))
		for _, p := range shardCounts {
			if got := run(t, sim.WithShards(p)); got != serial {
				t.Errorf("%s: %d-shard run diverged from serial reference\n  shards=1 %s\n  shards=%d %s",
					name, p, serial, p, got)
			}
		}
	}
}

// TestShardGoldenHashes pins the shard-mode observable stream byte for byte,
// like TestGoldenHashes does for the classic scheduler. Every scenario is
// hashed at one and at four shards and both must match the committed value —
// so a regression in either the serial reference or the parallel engine
// (or a drift between them) fails against a fixed point, not just pairwise.
func TestShardGoldenHashes(t *testing.T) {
	path := filepath.Join("testdata", "shard_golden_hashes.json")
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	} else if !*updateGolden {
		t.Fatalf("missing %s (run with -update-golden to create)", path)
	}
	got := map[string]string{}
	for name, run := range goldenScenarios() {
		one := run(t, sim.WithShards(1))
		four := run(t, sim.WithShards(4))
		if one != four {
			t.Fatalf("scenario %q: shards=1 and shards=4 disagree before pinning\n  one  %s\n  four %s", name, one, four)
		}
		got[name] = one
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	for name, want := range golden {
		if got[name] != want {
			t.Errorf("scenario %q: shard-mode output diverged from golden\n got %s\nwant %s", name, got[name], want)
		}
	}
	for name := range got {
		if _, ok := golden[name]; !ok {
			t.Errorf("scenario %q has no committed shard golden (run -update-golden)", name)
		}
	}
}

// runShardFlood is the C >= 1 workhorse scenario: a flood broadcast over a
// GNP graph, returning every observable for field-by-field comparison.
func runShardFlood(t *testing.T, shards int, extra ...sim.Option) (lossyRun, *sim.Network) {
	t.Helper()
	g := graph.GNP(120, 0.06, 17)
	buf := trace.NewSerial(0)
	net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
		append([]sim.Option{sim.WithDelays(2, 1), sim.WithSeed(29), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithShards(shards)}, extra...)...)
	for u := 0; u < g.N(); u += 4 {
		net.Inject(core.Time(u%3), core.NodeID(u), topology.Trigger{})
	}
	finish, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	return lossyRun{
		events:     buf.Events(),
		metrics:    net.Metrics(),
		finish:     finish,
		deliveries: net.DeliveriesPerNode(),
		busy:       net.BusyTimePerNode(),
		sched:      net.SchedStats(),
	}, net
}

// TestShardEngagement verifies the sharded path is actually selected on a
// C >= 1 GNP scenario — the partition statistics are sane, the run matches
// the serial reference field by field, and the total event count is
// conserved (every event dispatches exactly once, on exactly one shard).
func TestShardEngagement(t *testing.T) {
	serial, refNet := runShardFlood(t, 1)
	if got := refNet.Shards(); got != 1 {
		t.Fatalf("serial reference reports %d shards", got)
	}
	sharded, net := runShardFlood(t, 4)
	info := net.ShardInfo()
	if info.Shards <= 1 {
		t.Fatalf("sharded run did not engage: %+v", info)
	}
	if info.Lookahead != 2 {
		t.Errorf("lookahead = %d, want the exact hardware delay 2", info.Lookahead)
	}
	if info.CutEdges == 0 {
		t.Error("partition reports no cut edges on a connected GNP graph")
	}
	if serial.sched.Events != sharded.sched.Events {
		t.Errorf("event count not conserved: serial %d, sharded %d", serial.sched.Events, sharded.sched.Events)
	}
	requireEqualRuns(t, serial, sharded)
}

// TestShardSerialFallback: an all-zero-delay model contracts the whole graph
// into one supernode, so any shard request collapses to the serial reference.
func TestShardSerialFallback(t *testing.T) {
	g := graph.GNP(64, 0.1, 3)
	net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
		sim.WithDelays(0, 1), sim.WithShards(8))
	if got := net.Shards(); got != 1 {
		t.Fatalf("zero-delay network partitioned into %d shards; zero-delay edges must never be cut", got)
	}
	if info := net.ShardInfo(); info.Lookahead != 0 || info.CutEdges != 0 {
		t.Fatalf("fallback ShardInfo = %+v, want zero cut stats", info)
	}
}

// TestShardEpochsAndDriverAPI drives the full mid-run driver surface the way
// soak campaigns do — RunUntil epochs with link flips, fault-profile swaps,
// and NCU stalls scripted in between — and requires the sharded run to match
// the serial reference field by field.
func TestShardEpochsAndDriverAPI(t *testing.T) {
	run := func(t *testing.T, shards int) lossyRun {
		t.Helper()
		g := graph.GNP(80, 0.08, 23)
		edges := g.Edges()
		buf := trace.NewSerial(0)
		net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, true, nil),
			sim.WithDelays(2, 1), sim.WithSeed(31), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithShards(shards))
		for u := 0; u < g.N(); u += 5 {
			net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
		}
		var finish core.Time
		for epoch, deadline := 0, core.Time(12); epoch < 4; epoch, deadline = epoch+1, deadline+12 {
			f, err := net.RunUntil(deadline)
			if err != nil {
				t.Fatal(err)
			}
			if f > finish {
				finish = f
			}
			e := edges[(epoch*7)%len(edges)]
			net.InjectLink(e.U, e.V, epoch%2 == 1)
			net.SetMsgFaults(core.MsgFaults{Drop: 0.02 * float64(epoch), Dup: 0.02, Jitter: 0.05, JitterMax: 3})
			net.StallNode(core.NodeID((epoch*13)%g.N()), 6, 2)
			net.Inject(deadline, core.NodeID((epoch*11)%g.N()), topology.Trigger{})
		}
		f, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		if f > finish {
			finish = f
		}
		return lossyRun{
			events:     buf.Events(),
			metrics:    net.Metrics(),
			finish:     finish,
			deliveries: net.DeliveriesPerNode(),
			busy:       net.BusyTimePerNode(),
			sched:      net.SchedStats(),
		}
	}
	serial := run(t, 1)
	for _, p := range []int{2, 4} {
		requireEqualRuns(t, serial, run(t, p))
	}
}

// FuzzShardCount searches for a shard-count dependence over random graphs,
// seeds, delay configs, shard counts, and fault profiles (including link
// flips that cut shard boundaries). Run as a CI fuzz smoke like
// FuzzCutThrough.
func FuzzShardCount(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(2), uint8(2), uint8(1), false, uint8(0), uint8(0), uint8(0))
	f.Add(int64(7), uint8(64), uint8(8), uint8(4), uint8(1), uint8(2), true, uint8(10), uint8(10), uint8(15))
	f.Add(int64(42), uint8(24), uint8(30), uint8(7), uint8(3), uint8(1), false, uint8(25), uint8(0), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct, shards, c, sw uint8, randomize bool, drop, dup, jitter uint8) {
		nodes := 8 + int(n)%120
		p := 0.04 + float64(pPct%100)/100
		hw := core.Time(c % 4)     // 0 covers the serial fallback
		swd := core.Time(1 + sw%3) // software delay >= 1
		P := 2 + int(shards)%7
		faults := core.MsgFaults{
			Drop:      float64(drop%40) / 200,
			Dup:       float64(dup%40) / 200,
			Jitter:    float64(jitter%40) / 200,
			JitterMax: 3,
			Reorder:   float64(jitter%20) / 200,
		}
		g := graph.GNP(nodes, p, seed)
		edges := g.Edges()
		run := func(shardCount int) string {
			buf := trace.NewSerial(0)
			opts := []sim.Option{sim.WithDelays(hw, swd), sim.WithSeed(seed), sim.WithDmax(2 * nodes),
				sim.WithTrace(buf), sim.WithMsgFaults(faults), sim.WithShards(shardCount)}
			if randomize {
				opts = append(opts, sim.WithRandomDelays())
			}
			net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, true, nil), opts...)
			net.SetLink(2, edges[0].U, edges[0].V, false)
			net.SetLink(9, edges[0].U, edges[0].V, true)
			for u := 0; u < nodes; u += 3 {
				net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		}
		if serial, sharded := run(1), run(P); serial != sharded {
			t.Errorf("shards=1 %s != shards=%d %s (nodes=%d p=%v hw=%d sw=%d rand=%v faults=%+v)",
				serial, P, sharded, nodes, p, hw, swd, randomize, faults)
		}
	})
}
