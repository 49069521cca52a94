// Sharded space-parallel execution: the graph is partitioned across worker
// shards (internal/graph.PartitionK) and each shard runs its own event core
// inside conservative synchronous windows. The minimum possible cross-shard
// link delay is the lookahead: a packet sent at time t needs at least that
// long to reach another shard, so inside the window [W, W+lookahead-1] the
// shards cannot influence each other and run in parallel; boundary packets
// are exchanged at the barrier and always land in a later window. Zero-delay
// edges are contracted before partitioning, so the lookahead is >= 1 whenever
// more than one shard exists; an all-zero-delay model collapses to one shard
// and runs serially. See docs/PERF.md ("Sharded space-parallel execution")
// for the design, the determinism contract, and the proof sketch.

package sim

import (
	"errors"
	"sort"
	"sync"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/trace"
)

// WithShards selects the shard-mode engine with p workers (p is a cap: the
// partitioner may produce fewer parts). Shard mode is a different stream
// contract than the classic serial scheduler — delay and fault draws, and
// activation/message labels, come from per-node streams instead of network-
// global ones, and same-instant dispatch follows a canonical (time, origin)
// order — precisely so that every observable (traces, metrics, ledgers,
// per-node vectors) is byte-identical for every p >= 1 on the same scenario.
// WithShards(1) is the serial reference execution of that contract; shard
// differential tests compare it against p > 1. WithShards(0) (or omitting
// the option) keeps the classic scheduler and its pinned golden streams.
func WithShards(p int) Option {
	return func(cf *config) {
		if p < 0 {
			p = 0
		}
		cf.shards = p
	}
}

// minHwDelay is the smallest hardware delay any live hop can take under the
// configuration: exact delays always pay C; randomized delays draw from
// [1, C]. Fault-injected extra delays (jitter, reorder, slowdown) only add,
// so this bound — and therefore the shard lookahead — survives every fault
// profile.
func (cf *config) minHwDelay() core.Time {
	if cf.hwDelay <= 0 {
		return 0
	}
	if cf.randomize {
		return 1
	}
	return cf.hwDelay
}

// shardGroup coordinates the facade Network's child shards.
type shardGroup struct {
	fac       *Network
	children  []*Network
	assign    []int32 // node -> shard
	lookahead core.Time
	cutEdges  int
	active    []*Network // scratch: participants of the current window
}

// ShardInfo describes the partition a sharded network runs on.
type ShardInfo struct {
	// Shards is the number of event cores executing the run (1 for the
	// classic scheduler and the shard-mode serial reference).
	Shards int
	// CutEdges is the number of edges crossing shard boundaries.
	CutEdges int
	// Lookahead is the synchronous-window width: the minimum possible
	// cross-shard link delay (0 when there is a single shard).
	Lookahead core.Time
}

// Shards returns the number of event cores executing this network's runs.
func (net *Network) Shards() int {
	if net.group != nil {
		return len(net.group.children)
	}
	return 1
}

// ShardInfo reports the partition statistics of the sharded engine.
func (net *Network) ShardInfo() ShardInfo {
	if net.group == nil {
		return ShardInfo{Shards: 1}
	}
	return ShardInfo{
		Shards:    len(net.group.children),
		CutEdges:  net.group.cutEdges,
		Lookahead: net.group.lookahead,
	}
}

// buildShards finishes construction of a shard-mode network: it partitions
// the graph, creates the child event cores, and repoints every node's env at
// its owning child. Called by New after the facade's nodes exist but before
// protocol Init. With one effective part (tiny graph, all-zero-delay model,
// or WithShards(1)) the facade itself becomes the single serial shard.
func (net *Network) buildShards() {
	net.shardMode = true
	net.curOrigin = -1
	net.scriptCtr = new(uint64)
	if _, discard := net.cfg.sink.(trace.Discard); !discard {
		net.userSink = net.cfg.sink
		net.tb = &traceBuf{}
		net.cfg.sink = net.tb
	}

	d := net.cfg.minHwDelay()
	if d <= 0 || net.cfg.shards <= 1 || net.g.N() < 2 {
		return // serial shard-mode reference: the facade is the one shard
	}
	part := graph.PartitionK(net.g, graph.PartitionOptions{
		K:         net.cfg.shards,
		Seed:      net.cfg.seed,
		EdgeDelay: func(u, v graph.NodeID) int64 { return int64(d) },
	})
	if part.K <= 1 {
		return
	}
	grp := &shardGroup{
		fac:       net,
		assign:    part.Assign,
		lookahead: core.Time(part.MinCrossDelay),
		cutEdges:  part.CutEdges,
	}
	for s := 0; s < part.K; s++ {
		ch := &Network{
			g:         net.g,
			pm:        net.pm,
			cfg:       net.cfg,
			down:      make(map[graph.Edge]bool),
			nodes:     net.nodes, // shared; each shard touches only owned rows
			perNode:   net.perNode,
			busy:      net.busy,
			shardMode: true,
			shardID:   int32(s),
			assign:    part.Assign,
			outbox:    make([][]eventRec, part.K),
			scriptCtr: net.scriptCtr,
			curOrigin: -1,
		}
		ch.initRing(ch.cfg.ringSize())
		if net.tb != nil {
			ch.tb = &traceBuf{}
			ch.cfg.sink = ch.tb
		}
		grp.children = append(grp.children, ch)
	}
	net.group = grp
	for i := range net.nodes {
		net.nodes[i].env.net = grp.children[part.Assign[i]]
	}
}

// ownerOf returns the event core that owns node v: the child shard in a
// sharded group, the network itself otherwise.
func (net *Network) ownerOf(v core.NodeID) *Network {
	if net.group != nil {
		return net.group.children[net.group.assign[v]]
	}
	return net
}

// ownsNode reports whether this event core dispatches node v's events.
func (net *Network) ownsNode(v core.NodeID) bool {
	return net.assign == nil || net.assign[v] == net.shardID
}

// nextEventTime is the earliest pending instant of this event core, or -1
// when it is drained: the minimum over the same-time lane and stage (both
// normally empty between windows), the per-shard calendar ring (via the
// occupancy bitmap's word-level scan), and the heap.
func (net *Network) nextEventTime() core.Time {
	if net.lane.len() > 0 || net.stage.len() > 0 {
		return net.now
	}
	t := core.Time(-1)
	if net.queue.len() > 0 {
		t = net.queue.evs[0].t
	}
	if r := net.nextRingInstant(); r >= 0 && (t < 0 || r < t) {
		t = r
	}
	return t
}

// insertForeign adds a boundary event received at the barrier to this
// shard's ring (in window) or heap. Its key was assigned by the sending
// shard from the origin node's canonical counter, and shard-mode promotion
// re-sorts ring slots by key, so neither tier nor barrier arrival order
// decides its dispatch place — the canonical key does.
func (net *Network) insertForeign(e eventRec) {
	if e.t > net.now && e.t-net.now < net.ringSpan {
		net.stats.RingPushes++
		net.ring[e.t&net.ringMask].pushBack(e)
		net.ringSet(e.t & net.ringMask)
		net.ringPending++
		if net.ringPending > net.stats.RingPeak {
			net.stats.RingPeak = net.ringPending
		}
		return
	}
	net.stats.RingOverflows++
	net.stats.HeapPushes++
	net.queue.push(e)
	if n := net.queue.len(); n > net.stats.HeapPeak {
		net.stats.HeapPeak = n
	}
}

// run is the synchronous-window coordinator: find the earliest pending event
// across shards, run every shard with work in [W, W+lookahead-1] in parallel,
// then exchange boundary packets at the barrier. Cross-shard packets always
// land strictly after the window (send time >= W, delay >= lookahead), so no
// shard can ever see an event for an instant it has already passed.
func (grp *shardGroup) run(deadline core.Time) (core.Time, error) {
	var errs []error
	for len(errs) == 0 {
		w := core.Time(-1)
		for _, ch := range grp.children {
			if t := ch.nextEventTime(); t >= 0 && (w < 0 || t < w) {
				w = t
			}
		}
		if w < 0 || (deadline >= 0 && w > deadline) {
			break
		}
		end := w + grp.lookahead - 1
		if deadline >= 0 && end > deadline {
			end = deadline
		}
		grp.active = grp.active[:0]
		for _, ch := range grp.children {
			if t := ch.nextEventTime(); t >= 0 && t <= end {
				grp.active = append(grp.active, ch)
			}
		}
		if len(grp.active) == 1 {
			if _, err := grp.active[0].run(end); err != nil {
				errs = append(errs, err)
			}
		} else {
			werrs := make([]error, len(grp.active))
			var wg sync.WaitGroup
			for i, ch := range grp.active {
				wg.Add(1)
				go func(i int, ch *Network) {
					defer wg.Done()
					_, werrs[i] = ch.run(end)
				}(i, ch)
			}
			wg.Wait()
			for _, err := range werrs {
				if err != nil {
					errs = append(errs, err)
				}
			}
		}
		// Barrier: align clocks and drain the boundary outboxes into the
		// destination heaps. Insertion order is irrelevant — the canonical
		// keys decide dispatch order.
		for _, ch := range grp.children {
			if ch.now < end {
				ch.now = end
			}
		}
		for _, src := range grp.children {
			for dst, box := range src.outbox {
				for _, e := range box {
					grp.children[dst].insertForeign(e)
				}
				src.outbox[dst] = box[:0]
			}
		}
	}
	if deadline >= 0 {
		for _, ch := range grp.children {
			if ch.now < deadline {
				ch.now = deadline
			}
		}
	}
	fac := grp.fac
	for _, ch := range grp.children {
		if ch.now > fac.now {
			fac.now = ch.now
		}
	}
	if deadline >= 0 && fac.now < deadline {
		fac.now = deadline
	}
	if fac.userSink != nil {
		flushShardTrace(grp.children, fac.userSink)
	}
	return grp.metrics().FinishTime, errors.Join(errs...)
}

// metrics aggregates the children's cost measures (sums, with max for
// MaxHeaderHops and FinishTime — exactly core.Metrics.Add semantics).
func (grp *shardGroup) metrics() core.Metrics {
	m := grp.fac.metrics
	for _, ch := range grp.children {
		m.Add(ch.metrics)
	}
	return m
}

func (grp *shardGroup) schedStats() SchedStats {
	var s SchedStats
	for _, ch := range grp.children {
		s.add(ch.SchedStats())
	}
	return s
}

func (grp *shardGroup) events() int64 {
	var n int64
	for _, ch := range grp.children {
		n += ch.eventCount
	}
	return n
}

// traceBuf is the private, lock-free sink each shard records into; the
// facade merges the buffers into the user's sink at the end of every run.
type traceBuf struct {
	evs []trace.Event
}

func (b *traceBuf) Record(e trace.Event) { b.evs = append(b.evs, e) }

// flushShardTrace merges the shards' private trace buffers into the user's
// sink in the shard-mode canonical stream order: (Time, Node), with each
// node's own events in its dispatch order (the buffers are appended in child
// order and the sort is stable; all events of one node live in one buffer).
// The merged stream is a pure function of the scenario — independent of the
// shard count — which is what lets golden hashes pin it. The serial reference
// (one shard) goes through the same merge, so its stream is identical.
func flushShardTrace(nets []*Network, sink trace.Sink) {
	total := 0
	for _, ch := range nets {
		if ch.tb != nil {
			total += len(ch.tb.evs)
		}
	}
	if total == 0 {
		return
	}
	merged := make([]trace.Event, 0, total)
	for _, ch := range nets {
		if ch.tb != nil {
			merged = append(merged, ch.tb.evs...)
			ch.tb.evs = ch.tb.evs[:0]
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].Time != merged[j].Time {
			return merged[i].Time < merged[j].Time
		}
		return merged[i].Node < merged[j].Node
	})
	for _, e := range merged {
		sink.Record(e)
	}
}
