package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/experiments"
	"fastnet/internal/faults"
	"fastnet/internal/globalfn"
	"fastnet/internal/gosim"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/paths"
	"fastnet/internal/reliable"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// benchCase is one named bench row: `fastnet bench` measures it into the
// artifact and `go test -bench Rows ./cmd/fastnet` runs it as a
// sub-benchmark, so there is exactly one definition of each row's workload
// and checks. Rows that observe the event core report their per-iteration
// scheduler dispatches as "events/op", and open-loop rows their generated
// calls as "calls/op", through b.ReportMetric. Every workload is built
// inside fn, so a filtered invocation pays for nothing it skips.
type benchCase struct {
	name   string
	shards int // event cores of a sharded row (fastnet bench raises GOMAXPROCS to match)
	best   int // harness runs fastnet bench keeps the fastest of; 0 = one
	fn     func(b *testing.B)
}

// benchRows enumerates every bench row in artifact order: one per experiment,
// then the substrate micro benchmarks. Names are stable artifact keys
// (compareBaseline matches on them), so renaming one is a tracked-history
// break, not a refactor. short swaps the multi-second rows for scaled-down
// points of the same paths, for `go test -short`.
func benchRows(short bool) []benchCase {
	// E20–E24 are multi-second sweeps; in short mode each row benchmarks a
	// single scaled-down point instead: churn, lossy links, reordering (I7),
	// gray slowdowns and stalls (I8), and a capped open-loop run (I9).
	shortRows := map[string]func(*testing.B){
		"E20": soakRow(faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 2, Crashes: 1, Downtime: 2, NoElection: true,
		}),
		"E21": soakRow(faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2, NoElection: true,
			Reliable: 8, Loss: 0.1, Dup: 0.05, Corrupt: 0.025, Jitter: 0.05,
		}),
		"E22": soakRow(faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2,
			Reorder: 0.2, ReorderWindow: 12,
		}),
		"E23": soakRow(faults.Config{
			Seed: 1, Epochs: 2, Mode: topology.ModeFlood,
			Flaps: 1, Crashes: 1, Downtime: 2,
			Reliable: 4, Slow: 0.2, Stall: 1,
		}),
		"E24": openLoopRow(load.Config{
			Seed: 7, Calls: 5000, Rate: 1, Holding: 200, Zipf: 1.1,
			NCUCap: 8, Capacity: core.Capacity{NCUQueue: 16},
		}),
	}
	var rows []benchCase
	for _, s := range experiments.All() {
		fn := specRow(s)
		if sub, ok := shortRows[s.ID]; ok && short {
			fn = sub
		}
		rows = append(rows, benchCase{name: s.ID, fn: fn})
	}
	rows = append(rows,
		benchCase{name: "SingleBroadcast4096", fn: broadcastRow(func() *graph.Graph { return graph.RandomTree(4096, 2) }, topology.ModeBranching, 4095)},
		// want 0 skips the coverage check: sparse GNP graphs need not be
		// connected, and the flood's cost is what is being measured.
		benchCase{name: "Flood1024", fn: broadcastRow(func() *graph.Graph { return graph.GNP(1024, 4.0/1024, 3) }, topology.ModeFlood, 0)},
		benchCase{name: "Election1024", fn: electionRow},
		benchCase{name: "GosimBroadcast1024", fn: gosimRow},
		benchCase{name: "DBRouteWarm", fn: routeRow(false, false)},
		benchCase{name: "DBRouteCold", fn: routeRow(false, true)},
		benchCase{name: "DBRouteMinLoadWarm", fn: routeRow(true, false)},
		benchCase{name: "DBRouteMinLoadCold", fn: routeRow(true, true)},
		benchCase{name: "ReliableAdaptive", fn: reliableAdaptiveRow},
		benchCase{name: "DetectorPhi", fn: detectorPhiRow},
		// The jitter rows are multi-second single-iteration measurements, so
		// the artifact keeps the fastest of three: the standard way to strip
		// shared-runner noise from a deterministic workload.
		benchCase{name: "JitterBroadcastC2", best: 3, fn: jitterRow(2, 0, short)},
		benchCase{name: "JitterBroadcastC8", best: 3, fn: jitterRow(8, 0, short)},
		benchCase{name: "JitterBroadcastC8Shard4", shards: 4, best: 3, fn: jitterRow(8, 4, short)},
	)
	shardCounts := []int{1, 2, 4}
	if nc := runtime.NumCPU(); nc > 4 {
		shardCounts = append(shardCounts, nc)
	}
	for _, p := range shardCounts {
		rows = append(rows, benchCase{name: fmt.Sprintf("ShardedBroadcast%d", p), shards: p, fn: shardRow(p)})
	}
	// The open-loop load plane at a million calls per run (a hundred
	// thousand in short mode): Poisson arrivals, bursty MMPP arrivals, and a
	// Zipf-skewed run with the capacity model on (finite NCU queues, link
	// buckets, per-endpoint admission) so the artifact tracks the engine's
	// full-featured cost, not just its fast path.
	calls := 1_000_000
	if short {
		calls = 100_000
	}
	rows = append(rows,
		benchCase{name: "OpenLoopPoisson", fn: openLoopRow(load.Config{Seed: 1, Calls: calls, Rate: 4, Holding: 256})},
		benchCase{name: "OpenLoopBurst", fn: openLoopRow(load.Config{Seed: 1, Calls: calls, Rate: 4, BurstFactor: 8, Holding: 256})},
		benchCase{name: "OpenLoopZipf", fn: openLoopRow(load.Config{
			Seed: 1, Calls: calls, Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
			Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8},
		})},
		benchCase{name: "ANREncodeDecode", fn: anrRow},
		benchCase{name: "TreeLabelDecompose", fn: treeLabelRow},
		benchCase{name: "OptimalTimeRecursion", fn: optimalTimeRow},
		benchCase{name: "TreeBasedExecution", fn: treeExecRow},
	)
	return rows
}

// specRow runs one experiment per iteration in the serial reference context.
func specRow(s experiments.Spec) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tbl, err := s.Run(experiments.Ctx{})
			if err != nil {
				b.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
	}
}

// soakRow runs one invariant-checked soak per iteration on E20/E21's fabric.
func soakRow(cfg faults.Config) func(*testing.B) {
	return func(b *testing.B) {
		g := graph.GNP(24, 0.25, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := faults.Soak(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if !res.OK() {
				b.Fatalf("invariant violation: %v", res.Violations)
			}
		}
	}
}

// broadcastRow measures one warm-start broadcast from node 0. want > 0
// requires exactly want nodes covered and want deliveries.
func broadcastRow(mk func() *graph.Graph, mode topology.Mode, want int) func(*testing.B) {
	return func(b *testing.B) {
		g := mk()
		var events int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := topology.SingleBroadcast(g, 0, mode)
			if err != nil {
				b.Fatal(err)
			}
			if want > 0 && (res.Covered != want || res.Metrics.Deliveries != int64(want)) {
				b.Fatalf("covered %d nodes with %d deliveries, want %d", res.Covered, res.Metrics.Deliveries, want)
			}
			events = res.Events
		}
		b.ReportMetric(float64(events), "events/op")
	}
}

// electionRow measures the §4 election with every node a starter.
func electionRow(b *testing.B) {
	g := graph.GNP(1024, 4.0/1024, 3)
	starters := make([]core.NodeID, 1024)
	for i := range starters {
		starters[i] = core.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := election.Run(g, election.AlgoToken, starters)
		if err != nil {
			b.Fatal(err)
		}
		if res.AlgorithmMessages > 6*1024 {
			b.Fatalf("6n bound violated: %d", res.AlgorithmMessages)
		}
	}
}

// gosimRow measures the goroutine runtime end to end: build a 1024-node
// network (one goroutine per NCU), warm-start the origin's database, run one
// full branching-paths broadcast to quiescence, and tear it down. The DES
// rows cover the scheduler; this row tracks the runtime the DES results are
// cross-validated against, so a slowdown in channel routing, quiescence
// detection, or shutdown shows up in the artifact too.
func gosimRow(b *testing.B) {
	g := graph.RandomTree(1024, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := gosim.New(g, topology.NewMaintainer(topology.ModeBranching, false, nil),
			gosim.WithDmax(g.N()))
		net.Protocol(0).(topology.Maintainer).Preload(topology.RecordsForGraph(g, net.PortMap(), nil))
		net.Inject(0, topology.Trigger{})
		err := net.AwaitQuiescence(30 * time.Second)
		m := net.Metrics()
		net.Shutdown()
		if err != nil {
			b.Fatal(err)
		}
		if m.Deliveries != 1023 {
			b.Fatalf("covered %d of 1023 nodes", m.Deliveries)
		}
	}
}

// routeRow measures the amortized routing plane on a warmed GNP-256
// database. The warm variant routes repeatedly between topology updates
// (the steady state of a quiet network — version unchanged, everything
// served from cache); the cold variant bumps the database version before
// every query by re-announcing a record with a changed load, forcing the
// full rebuild the pre-cache code paid on every call. A load-only change
// keeps every min-hop route identical while still invalidating the caches,
// so warm and cold do the same routing work and differ only in
// amortization. minLoad routes on load-weighted trees instead of min-hop.
func routeRow(minLoad, cold bool) func(*testing.B) {
	return func(b *testing.B) {
		g := graph.GNP(256, 8.0/256, 17)
		db := topology.NewDB()
		for _, r := range topology.RecordsForGraph(g, core.NewPortMap(g), nil) {
			db.Update(r)
		}
		if _, err := db.Route(0, 255); err != nil {
			b.Fatal(err)
		}
		rec, _ := db.Record(0)
		// Detach from the stored record: the cold loop mutates the links.
		rec.Links = append([]topology.LinkInfo(nil), rec.Links...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if cold {
				rec.Seq++
				rec.Links[0].Load++
				db.Update(rec)
			}
			src := core.NodeID(i * 31 % 256)
			dst := core.NodeID((i*97 + 13) % 256)
			var err error
			if minLoad {
				_, err = db.RouteMinLoad(src, dst)
			} else {
				_, err = db.Route(src, dst)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// relBenchSend commands the bench sender to open one reliable frame.
type relBenchSend struct{}

// relBenchNode drives an adaptive reliable endpoint toward its neighbor.
type relBenchNode struct {
	*reliable.Node
}

func (p *relBenchNode) Deliver(env core.Env, pkt core.Packet) {
	if _, ok := pkt.Payload.(relBenchSend); ok {
		pt, ok := env.PortToward(1)
		if !ok {
			return
		}
		_ = p.E.SendRoute(env, 1, anr.Direct([]anr.ID{pt.Local}), pkt.Payload)
		return
	}
	p.Node.Deliver(env, pkt)
}

// reliableAdaptiveRow pushes 64 frames through the Jacobson/Karn estimator
// on a two-node fabric per iteration, all acked — one of the gray-failure
// hot paths added with invariant I8.
func reliableAdaptiveRow(b *testing.B) {
	const msgs = 64
	g := graph.Path(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sender *reliable.Node
		net := sim.New(g, func(id core.NodeID) core.Protocol {
			nd := reliable.NewNode(id, reliable.Config{RTO: 4, MaxBackoff: 64, Adaptive: true, MinRTO: 2, MaxRTO: 64})
			if id == 0 {
				sender = nd
				return &relBenchNode{Node: nd}
			}
			return nd
		}, sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(1))
		horizon := core.Time(msgs*8 + 400)
		for k := 0; k < msgs; k++ {
			net.Inject(core.Time(k*8), 0, relBenchSend{})
		}
		for t := core.Time(4); t <= horizon; t += 4 {
			net.Inject(t, 0, reliable.Tick{})
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		if got := sender.E.Stats().Acked; got != msgs {
			b.Fatalf("acked %d of %d", got, msgs)
		}
	}
}

// detectorPhiRow runs 64 probe periods of the phi-accrual failure detector
// against a live leader per iteration, no suspicion raised — the other
// gray-failure hot path.
func detectorPhiRow(b *testing.B) {
	const (
		beats  = 64
		period = 16
	)
	g := graph.Path(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dets := make([]*election.Detector, 2)
		net := sim.New(g, func(id core.NodeID) core.Protocol {
			dets[id] = election.NewAdaptiveDetector(id, 3)
			return &election.DetectorNode{D: dets[id]}
		}, sim.WithDelays(3, 2), sim.WithRandomDelays(), sim.WithSeed(1))
		links, err := net.PortMap().RouteLinks([]core.NodeID{0, 1})
		if err != nil {
			b.Fatal(err)
		}
		dets[0].SetLeader(1, anr.Direct(links))
		dets[1].SetLeader(1, nil)
		for k := 1; k <= beats; k++ {
			net.Inject(core.Time(k*period), 0, election.BeatTick{})
		}
		if _, err := net.Run(); err != nil {
			b.Fatal(err)
		}
		st := dets[0].Stats()
		if st.Suspected || st.Probes == 0 || st.LastAckTick == 0 {
			b.Fatalf("detector state wrong: %s", st)
		}
	}
}

// jitterRow measures the fault-heavy C >= 1 regime the auto-sized calendar
// ring exists for: a dense GNP flood broadcast under hardware delay c where
// every hop is jittered up to 384 ticks — far beyond the historical 64-slot
// window — and NCU slowdowns stretch the activation backlog. On the
// pre-batching spine (sim.WithHopBatching(false) plus sim.WithRingWindow(64))
// nearly every hop overflows to the heap, which climbs past a million
// pending events; the auto-sized ring keeps the same run at ~100% heap
// bypass (see docs/PERF.md). Short mode shrinks the graph to 192 nodes.
func jitterRow(c core.Time, shards int, short bool) func(*testing.B) {
	return func(b *testing.B) {
		mf := core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512}
		n := 1024
		if short {
			n = 192
		}
		g := graph.GNP(n, 14.0/float64(n), 11)
		var events int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts := []sim.Option{sim.WithDelays(c, 1), sim.WithSeed(7), sim.WithMsgFaults(mf)}
			if shards > 0 {
				opts = append(opts, sim.WithShards(shards))
			}
			net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil), opts...)
			recs := topology.RecordsForGraph(g, net.PortMap(), nil)
			for u := 0; u < g.N(); u += 8 {
				net.Protocol(core.NodeID(u)).(topology.Maintainer).Preload(recs)
				net.Inject(core.Time(u%8), core.NodeID(u), topology.Trigger{})
			}
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
			if net.Metrics().Deliveries == 0 {
				b.Fatal("flood delivered nothing")
			}
			events = net.SchedStats().Events
		}
		b.ReportMetric(float64(events), "events/op")
	}
}

// shardRow measures the sharded space-parallel scheduler: one flood
// broadcast over a GNP-8192 graph at the given shard count. The shards=1 row
// is the serial reference of the same stream contract, so events/sec ratios
// between rows are the parallel speedup. The run at >= 4 shards doubles as a
// smoke check that the partitioner actually engages the parallel path on GNP.
func shardRow(shards int) func(*testing.B) {
	return func(b *testing.B) {
		const n = 8192
		g := graph.GNP(n, 6.0/n, 9)
		var events int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net := sim.New(g, topology.NewMaintainer(topology.ModeFlood, false, nil),
				sim.WithDelays(2, 1), sim.WithSeed(7), sim.WithDmax(n), sim.WithShards(shards))
			if shards >= 4 && net.Shards() <= 1 {
				b.Fatalf("sharded engine not engaged on GNP: %+v", net.ShardInfo())
			}
			net.Inject(0, 0, topology.Trigger{})
			if _, err := net.Run(); err != nil {
				b.Fatal(err)
			}
			if net.Metrics().Deliveries == 0 {
				b.Fatal("flood delivered nothing")
			}
			events = net.SchedStats().Events
		}
		b.ReportMetric(float64(events), "events/op")
	}
}

// openLoopRow measures the open-loop load plane end to end on GNP-1024: the
// sampler, the timing wheel, the record pool, and the latency recorders,
// riding the event spine. Every run must generate its full call count with
// an exactly-once ledger, and the record pool must engage: pooled records
// stay under a quarter of the generated calls, so allocs/op stays flat
// across rows with very different in-flight populations.
func openLoopRow(cfg load.Config) func(*testing.B) {
	return func(b *testing.B) {
		g := graph.GNP(1024, 6.0/1024, 3)
		var events int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := load.Run(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if s.Generated != int64(cfg.Calls) {
				b.Fatalf("generated %d of %d calls", s.Generated, cfg.Calls)
			}
			if s.Generated != s.Delivered+s.Blocked+s.Dropped {
				b.Fatalf("ledger leak: gen=%d del=%d blk=%d drp=%d",
					s.Generated, s.Delivered, s.Blocked, s.Dropped)
			}
			if int64(s.PoolChunks*1024) > s.Generated/4 {
				b.Fatalf("record pool not engaged: %d records for %d calls", s.PoolChunks*1024, s.Generated)
			}
			events = s.Sched.Events
		}
		b.ReportMetric(float64(events), "events/op")
		b.ReportMetric(float64(cfg.Calls), "calls/op")
	}
}

// anrRow encodes and decodes a 64-hop copy-path ANR header.
func anrRow(b *testing.B) {
	links := make([]anr.ID, 64)
	for i := range links {
		links[i] = anr.ID(i%15 + 1)
	}
	h := anr.CopyPath(links)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := h.Encode(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := anr.Decode(data, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// treeLabelRow labels and decomposes a 4096-node random tree into branching
// paths, checking the log2 n round bound.
func treeLabelRow(b *testing.B) {
	tr := graph.RandomTree(4096, 1).BFSTree(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := paths.Decompose(tr, paths.Labels(tr))
		if _, max := d.Rounds(0); max > 13 {
			b.Fatal("bound violated")
		}
	}
}

// optimalTimeRow evaluates the optimal-completion-time recursion for 2^20
// nodes.
func optimalTimeRow(b *testing.B) {
	p := globalfn.Params{C: 3, P: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.OptimalTime(1 << 20); err != nil {
			b.Fatal(err)
		}
	}
}

// treeExecRow simulates a globally sensitive function over the optimal
// 2048-input tree, which must finish exactly at the optimal time.
func treeExecRow(b *testing.B) {
	p := globalfn.Params{C: 1, P: 1}
	tstar, err := p.OptimalTime(2048)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := p.OptimalTree(tstar)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]globalfn.Value, tr.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := globalfn.Execute(tr, p, inputs, globalfn.Sum, false)
		if err != nil {
			b.Fatal(err)
		}
		if globalfn.Time(res.Finish) != tstar {
			b.Fatal("finish mismatch")
		}
	}
}
