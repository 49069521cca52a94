package sim_test

import (
	"testing"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
	"fastnet/internal/trace"
)

// The tests in this file are the evidence that gated re-pinning the golden
// hashes for cut-through switching: a fused run (zero-delay hops executed
// inline) and an unfused run (every hop a scheduler event) of the same
// scenario must agree on every observable — the full trace stream, the
// per-node projections, metrics, finish time, and the per-node delivery and
// busy vectors. Only Events(), the count of scheduler dispatches, may
// differ: shrinking it is the optimization.

// diffRun executes one scenario fused and unfused and requires identical
// hashes (the hash covers trace + metrics + finish + per-node vectors).
func diffRun(t *testing.T, name string, run func(t *testing.T, extra ...sim.Option) string) {
	t.Helper()
	fused := run(t, sim.WithCutThrough(true))
	unfused := run(t, sim.WithCutThrough(false))
	if fused != unfused {
		t.Errorf("%s: fused and unfused executions diverged\n  fused   %s\n  unfused %s", name, fused, unfused)
	}
}

// TestCutThroughDifferential runs every golden scenario — exact C = 0 (the
// fusion-heavy regime), randomized C > 0 (fusion never fires; both modes
// must take the identical heap path), lossy links with flaps, and a
// multi-starter election — in both modes.
func TestCutThroughDifferential(t *testing.T) {
	for name, run := range goldenScenarios() {
		diffRun(t, name, run)
	}
}

// lossyRun is the hand-rolled fusion-heavy scenario: branching-path
// broadcasts over a zero-hardware-delay tree with every fault class
// enabled, so fused segments see drops, duplicates, corruptions, and
// jitter mid-walk. It returns the full observable state for field-by-field
// comparison.
type lossyRun struct {
	events     []trace.Event
	metrics    core.Metrics
	finish     core.Time
	deliveries []int64
	busy       []core.Time
	sched      sim.SchedStats
}

func runLossyBranching(t *testing.T, seed int64, faults core.MsgFaults, extra ...sim.Option) lossyRun {
	t.Helper()
	g := graph.RandomTree(96, seed)
	buf := trace.NewSerial(0)
	net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		append([]sim.Option{sim.WithDelays(0, 1), sim.WithSeed(seed), sim.WithDmax(g.N()),
			sim.WithTrace(buf), sim.WithMsgFaults(faults)}, extra...)...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
	}
	for u := 0; u < g.N(); u += 7 {
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
	}
}

// requireEqualRuns compares two runs observable by observable, including
// the per-node trace projections, with failure messages that name what
// diverged (a hash mismatch alone cannot).
func requireEqualRuns(t *testing.T, fused, unfused lossyRun) {
	t.Helper()
	if fused.metrics != unfused.metrics {
		t.Errorf("metrics diverged\n  fused   %+v\n  unfused %+v", fused.metrics, unfused.metrics)
	}
	if fused.finish != unfused.finish {
		t.Errorf("finish diverged: fused %d, unfused %d", fused.finish, unfused.finish)
	}
	for u := range fused.deliveries {
		if fused.deliveries[u] != unfused.deliveries[u] {
			t.Errorf("node %d deliveries diverged: fused %d, unfused %d", u, fused.deliveries[u], unfused.deliveries[u])
		}
		if fused.busy[u] != unfused.busy[u] {
			t.Errorf("node %d busy time diverged: fused %d, unfused %d", u, fused.busy[u], unfused.busy[u])
		}
	}
	if len(fused.events) != len(unfused.events) {
		t.Fatalf("trace length diverged: fused %d, unfused %d", len(fused.events), len(unfused.events))
	}
	for i := range fused.events {
		if fused.events[i] != unfused.events[i] {
			t.Fatalf("trace event %d diverged\n  fused   %+v\n  unfused %+v", i, fused.events[i], unfused.events[i])
		}
	}
	fp, up := trace.PerNode(fused.events), trace.PerNode(unfused.events)
	if len(fp) != len(up) {
		t.Fatalf("projection node sets diverged: fused %d nodes, unfused %d", len(fp), len(up))
	}
	for node, fe := range fp {
		ue := up[node]
		if len(fe) != len(ue) {
			t.Fatalf("node %d projection length diverged: fused %d, unfused %d", node, len(fe), len(ue))
			continue
		}
		for i := range fe {
			if fe[i] != ue[i] {
				t.Errorf("node %d projection event %d diverged\n  fused   %+v\n  unfused %+v", node, i, fe[i], ue[i])
			}
		}
	}
}

// TestCutThroughLossyFusedSegments covers drop, dup, corrupt and jitter
// faults landing on fused segments, each fault class alone and all
// together, field-by-field.
func TestCutThroughLossyFusedSegments(t *testing.T) {
	cases := []struct {
		name   string
		faults core.MsgFaults
		check  func(m core.Metrics) int64
	}{
		{"drop", core.MsgFaults{Drop: 0.08}, func(m core.Metrics) int64 { return m.FaultDrops }},
		{"dup", core.MsgFaults{Dup: 0.08}, func(m core.Metrics) int64 { return m.FaultDups }},
		{"corrupt", core.MsgFaults{Corrupt: 0.08}, func(m core.Metrics) int64 { return m.FaultCorrupts }},
		{"jitter", core.MsgFaults{Jitter: 0.15, JitterMax: 4}, func(m core.Metrics) int64 { return m.FaultJitters }},
		{"all", core.MsgFaults{Drop: 0.04, Dup: 0.04, Corrupt: 0.03, Jitter: 0.08, JitterMax: 3}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fused := runLossyBranching(t, 5, tc.faults, sim.WithCutThrough(true))
			unfused := runLossyBranching(t, 5, tc.faults, sim.WithCutThrough(false))
			if tc.check != nil {
				if n := tc.check(fused.metrics); n == 0 {
					t.Fatalf("fault class %q never fired; scenario does not cover it", tc.name)
				}
			}
			if fused.sched.FusedHops == 0 {
				t.Fatal("no hops were fused; scenario does not exercise cut-through")
			}
			if unfused.sched.FusedHops != 0 {
				t.Fatalf("unfused run reported %d fused hops", unfused.sched.FusedHops)
			}
			requireEqualRuns(t, fused, unfused)
		})
	}
}

// TestCutThroughFilterMidFusion has a HopFilter reject packets at a transit
// subsystem, breaking walks mid-fusion.
func TestCutThroughFilterMidFusion(t *testing.T) {
	run := func(t *testing.T, extra ...sim.Option) lossyRun {
		t.Helper()
		g := graph.RandomTree(64, 4)
		buf := trace.NewSerial(0)
		filter := func(at core.NodeID, payload any) bool { return at%5 != 3 }
		net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			append([]sim.Option{sim.WithDelays(0, 1), sim.WithDmax(g.N()),
				sim.WithTrace(buf), sim.WithHopFilter(filter)}, extra...)...)
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		net.Protocol(0).(topology.Maintainer).Preload(recs)
		net.Inject(0, 0, topology.Trigger{})
		finish, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return lossyRun{events: buf.Events(), metrics: net.Metrics(), finish: finish,
			deliveries: net.DeliveriesPerNode(), busy: net.BusyTimePerNode(), sched: net.SchedStats()}
	}
	fused := run(t, sim.WithCutThrough(true))
	unfused := run(t, sim.WithCutThrough(false))
	if fused.metrics.Filtered == 0 {
		t.Fatal("filter never fired; scenario does not cover mid-fusion rejection")
	}
	requireEqualRuns(t, fused, unfused)
}

// TestCutThroughCrashBetweenHops downs a tree edge so that in-flight walks
// hit a dead link between fused hops and are dropped there.
func TestCutThroughCrashBetweenHops(t *testing.T) {
	run := func(t *testing.T, extra ...sim.Option) lossyRun {
		t.Helper()
		g := graph.RandomTree(64, 6)
		buf := trace.NewSerial(0)
		net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			append([]sim.Option{sim.WithDelays(0, 1), sim.WithDmax(g.N()), sim.WithTrace(buf)}, extra...)...)
		recs := topology.RecordsForGraph(g, net.PortMap(), nil)
		net.Protocol(0).(topology.Maintainer).Preload(recs)
		// Down an interior edge at t=0; the broadcast (planned on the
		// preloaded full view, which still believes the link is up) is
		// injected afterwards, so its walk reaches a dead link mid-route.
		e := g.Edges()[len(g.Edges())/2]
		net.SetLink(0, e.U, e.V, false)
		net.Inject(1, 0, topology.Trigger{})
		finish, err := net.Run()
		if err != nil {
			t.Fatal(err)
		}
		return lossyRun{events: buf.Events(), metrics: net.Metrics(), finish: finish,
			deliveries: net.DeliveriesPerNode(), busy: net.BusyTimePerNode(), sched: net.SchedStats()}
	}
	fused := run(t, sim.WithCutThrough(true))
	unfused := run(t, sim.WithCutThrough(false))
	if fused.metrics.Drops == 0 {
		t.Fatal("no drop on the downed link; scenario does not cover a crash mid-walk")
	}
	requireEqualRuns(t, fused, unfused)
}

// TestCutThroughSchedStats sanity-checks the observability counters: the
// fused run replaces per-hop events with fused hops, the unfused run pays
// one event per hop, and both absorb same-instant traffic in the lane.
func TestCutThroughSchedStats(t *testing.T) {
	fused := runLossyBranching(t, 9, core.MsgFaults{}, sim.WithCutThrough(true))
	unfused := runLossyBranching(t, 9, core.MsgFaults{}, sim.WithCutThrough(false))
	if fused.sched.FusedHops == 0 {
		t.Fatal("fused run reported no fused hops")
	}
	if fused.sched.Events >= unfused.sched.Events {
		t.Fatalf("fusion did not reduce events: fused %d, unfused %d", fused.sched.Events, unfused.sched.Events)
	}
	// Every hop the fused run cut through is an event the unfused run paid.
	if got := fused.sched.Events + fused.sched.FusedHops; got != unfused.sched.Events {
		t.Errorf("fused events (%d) + fused hops (%d) = %d, want unfused events %d",
			fused.sched.Events, fused.sched.FusedHops, got, unfused.sched.Events)
	}
	// A unit-delay run should be absorbed entirely by the same-time lane and
	// the near-time calendar ring; the heap is for far-future schedules only.
	if fused.sched.RingPushes == 0 || fused.sched.LanePushes == 0 || fused.sched.HeapPushes != 0 {
		t.Errorf("implausible stats: %+v", fused.sched)
	}
	if rate := unfused.sched.LaneHitRate(); rate <= 0 || rate > 1 {
		t.Errorf("lane hit rate %v out of range", rate)
	}
	if fpe := fused.sched.FusedHopsPerEvent(); fpe <= 0 {
		t.Errorf("fused hops per event %v, want > 0", fpe)
	}
}

// TestStatsSink checks the sink against the networks it observes: it
// accumulates every network's counters — pushes made outside a run
// (injections before Run, between RunUntil calls) included — with peaks
// combined by max, and Take resets it.
func TestStatsSink(t *testing.T) {
	stats := &sim.StatsSink{}
	g := graph.RandomTree(64, 5)
	net := sim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
		sim.WithDelays(1, 1), sim.WithStatsSink(stats))
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	for u := 0; u < g.N(); u++ {
		net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
	}
	net.Inject(0, 0, topology.Trigger{})
	if _, err := net.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	net.Inject(net.Now(), 7, topology.Trigger{})
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Take(), net.SchedStats(); got != want {
		t.Fatalf("sink %+v, network %+v", got, want)
	}
	if got := stats.Take(); got != (sim.SchedStats{}) {
		t.Fatalf("Take did not reset the sink: %+v", got)
	}
	a := runLossyBranching(t, 9, core.MsgFaults{}, sim.WithStatsSink(stats))
	b := runLossyBranching(t, 11, core.MsgFaults{}, sim.WithStatsSink(stats))
	got := stats.Take()
	if got.Events != a.sched.Events+b.sched.Events || got.LanePushes != a.sched.LanePushes+b.sched.LanePushes ||
		got.FusedHops != a.sched.FusedHops+b.sched.FusedHops || got.RingPeak != max(a.sched.RingPeak, b.sched.RingPeak) {
		t.Fatalf("sink %+v does not aggregate\n  %+v\n  %+v", got, a.sched, b.sched)
	}
}

// FuzzCutThrough searches for a divergence between fused and unfused
// execution over random graphs, seeds, modes, and fault profiles. Run as a
// CI fuzz smoke.
func FuzzCutThrough(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(30), false, uint8(10), uint8(10), uint8(5), uint8(10))
	f.Add(int64(7), uint8(48), uint8(12), true, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(42), uint8(24), uint8(50), true, uint8(25), uint8(0), uint8(12), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, n, pPct uint8, branching bool, drop, dup, corrupt, jitter uint8) {
		nodes := 8 + int(n)%56
		p := 0.05 + float64(pPct%100)/100
		faults := core.MsgFaults{
			Drop:      float64(drop%40) / 200,
			Dup:       float64(dup%40) / 200,
			Corrupt:   float64(corrupt%40) / 200,
			Jitter:    float64(jitter%40) / 200,
			JitterMax: 3,
		}
		mode := topology.ModeFlood
		if branching {
			mode = topology.ModeBranching
		}
		g := graph.GNP(nodes, p, seed)
		run := func(cutThrough bool) string {
			buf := trace.NewSerial(0)
			net := sim.New(g, topology.NewMaintainer(mode, true, nil),
				sim.WithDelays(0, 1), sim.WithSeed(seed), sim.WithDmax(2*nodes),
				sim.WithTrace(buf), sim.WithMsgFaults(faults), sim.WithCutThrough(cutThrough))
			if branching {
				recs := topology.RecordsForGraph(g, net.PortMap(), nil)
				for u := 0; u < nodes; u++ {
					net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
				}
			}
			for u := 0; u < nodes; u += 3 {
				net.Inject(core.Time(u%4), core.NodeID(u), topology.Trigger{})
			}
			finish, err := net.Run()
			if err != nil {
				t.Fatal(err)
			}
			return hashRun(buf, net, finish)
		}
		if fused, unfused := run(true), run(false); fused != unfused {
			t.Errorf("fused %s != unfused %s (nodes=%d p=%v mode=%v faults=%+v)",
				fused, unfused, nodes, p, mode, faults)
		}
	})
}
