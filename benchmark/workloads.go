package main

import (
	"fmt"
	"math/rand"
	"strings"

	"fastnet/internal/core"
	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// workload is one named set of inputs. Every repetition builds a fresh
// instance from its own seed; the simulated work of an instance is a pure
// function of that seed.
type workload struct {
	name string
	size string // the stated input size throughput is reported at
	op   string // what one operation is
	// newInstance builds an unset-up instance; traced asks for the handler
	// timing decorator where the workload owns the protocol factory.
	newInstance func(seed int64, traced bool) instance
	// decorated workloads build their own protocol factory, so a traced
	// instance wraps every node's protocol in a timedProto.
	decorated bool
	// partitionDelay is the edge delay PartitionK is given for the
	// graph.partition_s span: the workload's hardware delay, at least 1.
	partitionDelay int64
	// invariance, when set, is the traced run's extra check that the
	// instance at seed behaves identically on a differently configured
	// engine (shard-count invariance).
	invariance func(seed int64, want outcome) error
	// pairTable, when set, times the workload's PairTable build standalone.
	pairTable func(g *graph.Graph, seed int64) error
}

// instance is one repetition's inputs and system under test.
type instance interface {
	// setup builds the inputs up to the first simulated event.
	setup(tr *tracer)
	// run drives the simulation to completion; it is the timed operation.
	run(tr *tracer)
	// check verifies every operation of the finished run and collects its
	// counters, outside the timed region.
	check() outcome
	// graph is the instance's topology (valid after setup).
	graph() *graph.Graph
}

// outcome is what one repetition did.
type outcome struct {
	ops, failed int
	note        string // why operations failed
	// counters are exact per instance seed; repeated and traced runs of
	// the same instance must reproduce them.
	counters []metric
	// metrics are the runtime's model counters for the run.
	metrics core.Metrics
	// deliver and send are the traced handler spans, summed over nodes
	// (flood workloads only).
	deliver, send float64
}

var workloads = []*workload{
	{
		name:           "flood_jitter",
		size:           "GNP n=1024 mean degree 14, 16 origins, C=2 P=1, every hop jittered up to 384 ticks, 10% 2x slowdowns, classic scheduler",
		op:             "one origin's flood (every node of its component must learn its new record)",
		newInstance:    func(seed int64, traced bool) instance { return newFlood(floodJitter, seed, traced) },
		decorated:      true,
		partitionDelay: 2,
	},
	{
		name: "soak_churn",
		size: "GNP n=128 mean degree 4, branching paths (full knowledge), C=0 P=1, 5 epochs of flaps/crashes/partitions/leader crashes, loss 0.02, 4 reliable messages and one re-election per epoch",
		op:   "one invariant-checked soak epoch (I1-I8 must hold)",
		newInstance: func(seed int64, _ bool) instance {
			return &soak{seed: seed}
		},
		partitionDelay: 1,
	},
	{
		name: "openloop_zipf",
		size: "GNP n=1024 mean degree 6, 500000 Poisson calls at 4 calls/tick, Zipf 1.2 endpoints, holding 256, NCUCap 64, NCUQueue 64, LinkRate 2, LinkBurst 8",
		op:   "one generated call (the ledger must settle it exactly once)",
		newInstance: func(seed int64, _ bool) instance {
			return &openLoop{seed: seed}
		},
		partitionDelay: 1,
		pairTable: func(g *graph.Graph, seed int64) error {
			_, err := load.NewPairTable(g, core.NewPortMap(g), 0, openLoopConfig(seed).Zipf, seed^0x9a1f)
			return err
		},
	},
	{
		name:           "flood_shard2",
		size:           "GNP n=8192 mean degree 6, 8 origins, C=2 P=1, 2 shards",
		op:             "one origin's flood (every node of its component must learn its new record)",
		newInstance:    func(seed int64, traced bool) instance { return newFlood(floodShard2, seed, traced) },
		decorated:      true,
		partitionDelay: 2,
		invariance: func(seed int64, want outcome) error {
			p := floodShard2
			p.shards = 1
			f := newFlood(p, seed, false)
			f.setup(nil)
			f.run(nil)
			got := f.check()
			if got.failed > 0 {
				return fmt.Errorf("p=1 reference failed: %s", got.note)
			}
			if got.metrics != want.metrics {
				return fmt.Errorf("shard-count invariance: p=1 metrics %v, p=2 metrics %v", got.metrics, want.metrics)
			}
			return nil
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// floodParams is one flooding scenario.
type floodParams struct {
	n       int
	degree  float64
	origins int
	c       core.Time
	shards  int
	faults  core.MsgFaults
}

var (
	floodJitter = floodParams{
		n: 1024, degree: 14, origins: 16, c: 2,
		faults: core.MsgFaults{Jitter: 1, JitterMax: 384, Slowdown: 0.1, SlowFactor: 2, SlowMax: 512},
	}
	floodShard2 = floodParams{n: 8192, degree: 6, origins: 8, c: 2, shards: 2}
)

// flood triggers several origins' floods over a warm network: each origin
// starts with the full topology preloaded, as in a maintenance round.
type flood struct {
	p       floodParams
	seed    int64
	traced  bool
	g       *graph.Graph
	net     *sim.Network
	maint   []topology.Maintainer
	timed   []*timedProto
	origins []core.NodeID
	err     error
}

func newFlood(p floodParams, seed int64, traced bool) *flood {
	return &flood{p: p, seed: seed, traced: traced}
}

func (f *flood) graph() *graph.Graph { return f.g }

func (f *flood) setup(tr *tracer) {
	n := f.p.n
	sp := tr.begin("graph.gnp")
	f.g = graph.GNP(n, f.p.degree/float64(n), f.seed)
	tr.end(sp)

	inner := topology.NewMaintainer(topology.ModeFlood, false, nil)
	f.maint = make([]topology.Maintainer, n)
	if f.traced {
		f.timed = make([]*timedProto, n)
	}
	factory := func(id core.NodeID) core.Protocol {
		p := inner(id)
		f.maint[id] = p.(topology.Maintainer)
		if f.timed == nil {
			return p
		}
		t := &timedProto{inner: p}
		f.timed[id] = t
		return t
	}
	opts := []sim.Option{sim.WithDelays(f.p.c, 1), sim.WithSeed(f.seed), sim.WithDmax(n)}
	if f.p.faults.Enabled() {
		opts = append(opts, sim.WithMsgFaults(f.p.faults))
	}
	if f.p.shards > 0 {
		opts = append(opts, sim.WithShards(f.p.shards))
	}
	sp = tr.begin("sim.new")
	f.net = sim.New(f.g, factory, opts...)
	tr.end(sp)

	sp = tr.begin("topology.records")
	recs := topology.RecordsForGraph(f.g, f.net.PortMap(), nil)
	tr.end(sp)

	rng := rand.New(rand.NewSource(f.seed))
	f.origins = make([]core.NodeID, f.p.origins)
	for i, u := range rng.Perm(n)[:f.p.origins] {
		f.origins[i] = core.NodeID(u)
	}
	sp = tr.begin("topology.preload")
	for _, o := range f.origins {
		f.maint[o].Preload(recs)
	}
	tr.end(sp)
	for i, o := range f.origins {
		f.net.Inject(core.Time(i%8), o, topology.Trigger{})
	}
}

func (f *flood) run(tr *tracer) {
	sp := tr.begin("sim.run")
	_, f.err = f.net.Run()
	tr.end(sp)
}

func (f *flood) check() outcome {
	out := outcome{ops: len(f.origins)}
	if f.err != nil {
		out.failed, out.note = out.ops, f.err.Error()
		return out
	}
	// Every node of an origin's component must hold the origin's new
	// record (sequence number 1: the preload and Init snapshots are 0).
	for _, o := range f.origins {
		reach := f.g.BFSTree(o)
		for v := range f.maint {
			if !reach.Reached(core.NodeID(v)) {
				continue
			}
			if rec, ok := f.maint[v].DB().Record(o); !ok || rec.Seq < 1 {
				out.failed++
				out.note = fmt.Sprintf("origin %d's flood did not reach node %d", o, v)
				break
			}
		}
	}
	for _, t := range f.timed {
		out.deliver += t.deliver.Seconds()
		out.send += t.env.send.Seconds()
	}
	out.metrics = f.net.Metrics()
	out.counters = simCounters(out.metrics, f.net.SchedStats(), f.net.ShardInfo())
	return out
}

// soak is one invariant-checked churn soak. faults.Soak builds its network
// internally, so only graph generation is set-up the benchmark can time.
type soak struct {
	seed int64
	g    *graph.Graph
	res  *faults.Result
	err  error
}

const soakEpochs = 5

func soakConfig(seed int64) faults.Config {
	// The fastnet soak defaults (flaps, crashes, partitions every 5 epochs,
	// leader crashes, 2 calls and a re-election per epoch), plus a lossy
	// fabric with reliable-delivery ledger traffic.
	return faults.Config{
		Seed: seed, Epochs: soakEpochs, Mode: topology.ModeBranching,
		Flaps: 2, FlapLen: 1, PartitionEvery: 5, PartitionHeal: 1,
		Crashes: 1, Downtime: 1, LeaderCrash: 0.25, Calls: 2,
		Loss: 0.02, Reliable: 4,
	}
}

func (s *soak) graph() *graph.Graph { return s.g }

func (s *soak) setup(tr *tracer) {
	sp := tr.begin("graph.gnp")
	s.g = graph.GNP(128, 4.0/128, s.seed)
	tr.end(sp)
}

func (s *soak) run(tr *tracer) {
	sp := tr.begin("sim.run")
	s.res, s.err = faults.Soak(s.g, soakConfig(s.seed))
	tr.end(sp)
}

func (s *soak) check() outcome {
	out := outcome{ops: soakEpochs}
	if s.err != nil {
		out.failed, out.note = out.ops, s.err.Error()
		return out
	}
	res := s.res
	if res.Epochs != soakEpochs || !res.OK() {
		out.failed = soakEpochs - res.Epochs
		out.note = fmt.Sprintf("%d of %d epochs held every invariant: %v", res.Epochs, soakEpochs, res.Violations)
		if out.failed == 0 {
			out.failed = 1
		}
	}
	out.metrics = res.Metrics
	out.counters = append(simCounters(res.Metrics, res.Sched, sim.ShardInfo{Shards: 1}), soakCounters(res)...)
	return out
}

// openLoop is one open-loop load run. load.Run builds its network and pair
// table internally, so only graph generation is set-up the benchmark can
// time.
type openLoop struct {
	seed int64
	g    *graph.Graph
	st   *load.Stats
	err  error
}

func openLoopConfig(seed int64) load.Config {
	return load.Config{
		Seed: seed, Calls: 500_000, Rate: 4, Zipf: 1.2, Holding: 256, NCUCap: 64,
		Capacity: core.Capacity{NCUQueue: 64, LinkRate: 2, LinkBurst: 8},
	}
}

func (l *openLoop) graph() *graph.Graph { return l.g }

func (l *openLoop) setup(tr *tracer) {
	sp := tr.begin("graph.gnp")
	l.g = graph.GNP(1024, 6.0/1024, l.seed)
	tr.end(sp)
}

func (l *openLoop) run(tr *tracer) {
	sp := tr.begin("sim.run")
	l.st, l.err = load.Run(l.g, openLoopConfig(l.seed))
	tr.end(sp)
}

func (l *openLoop) check() outcome {
	cfg := openLoopConfig(l.seed)
	out := outcome{ops: cfg.Calls}
	if l.err != nil {
		out.failed, out.note = out.ops, l.err.Error()
		return out
	}
	st := l.st
	if settled := st.Delivered + st.Blocked + st.Dropped; st.Generated != int64(cfg.Calls) || settled != st.Generated {
		out.failed = out.ops
		out.note = fmt.Sprintf("ledger: calls=%d generated=%d delivered+blocked+dropped=%d", cfg.Calls, st.Generated, settled)
	}
	out.metrics = st.Net
	out.counters = append(simCounters(st.Net, st.Sched, sim.ShardInfo{Shards: 1}), loadCounters(st)...)
	return out
}

// soakCounters renders the fault, election and reliable-delivery ledgers
// of a soak.
func soakCounters(res *faults.Result) []metric {
	return []metric{
		{"faults.violations", "count", float64(len(res.Violations))},
		{"faults.flips", "count", float64(res.FaultFlips)},
		{"faults.conv_rounds", "count", float64(res.ConvRounds)},
		{"election.elections", "count", float64(res.Elections)},
		{"election.reelect_msgs", "count", float64(res.ReelectMsgs)},
		{"reliable.sent", "count", float64(res.RelSent)},
		{"reliable.retx", "count", float64(res.RelRetrans)},
	}
}

// loadCounters renders the load plane's call ledger and latency record.
func loadCounters(st *load.Stats) []metric {
	return []metric{
		{"load.generated", "count", float64(st.Generated)},
		{"load.delivered", "count", float64(st.Delivered)},
		{"load.blocked", "count", float64(st.Blocked)},
		{"load.dropped", "count", float64(st.Dropped)},
		{"load.max_in_flight", "count", float64(st.MaxInFlight)},
		{"load.pool_chunks", "count", float64(st.PoolChunks)},
		{"load.setup_p50_ticks", "ticks", float64(st.Setup.Quantile(0.5))},
		{"load.setup_p99_ticks", "ticks", float64(st.Setup.Quantile(0.99))},
		{"load.transit_p99_ticks", "ticks", float64(st.Transit.Quantile(0.99))},
	}
}

// simCounters renders the runtime's model and scheduler counters.
func simCounters(m core.Metrics, s sim.SchedStats, sh sim.ShardInfo) []metric {
	return []metric{
		{"sim.events", "count", float64(s.Events)},
		{"sim.heap_pushes", "count", float64(s.HeapPushes)},
		{"sim.lane_pushes", "count", float64(s.LanePushes)},
		{"sim.ring_pushes", "count", float64(s.RingPushes)},
		{"sim.batched_hops", "count", float64(s.BatchedHops)},
		{"sim.fused_hops", "count", float64(s.FusedHops)},
		{"sim.ring_overflows", "count", float64(s.RingOverflows)},
		{"sim.heap_peak", "count", float64(s.HeapPeak)},
		{"sim.ring_peak", "count", float64(s.RingPeak)},
		{"sim.heap_bypass", "ratio", s.LaneHitRate()},
		{"sim.shards", "count", float64(sh.Shards)},
		{"sim.cut_edges", "count", float64(sh.CutEdges)},
		{"sim.lookahead", "ticks", float64(sh.Lookahead)},
		{"core.hops", "count", float64(m.Hops)},
		{"core.deliveries", "count", float64(m.Deliveries)},
		{"core.injections", "count", float64(m.Injections)},
		{"core.link_events", "count", float64(m.LinkEvents)},
		{"core.packets", "count", float64(m.Packets)},
		{"core.fault_drops", "count", float64(m.FaultDrops)},
		{"core.finish_ticks", "ticks", float64(m.FinishTime)},
	}
}
