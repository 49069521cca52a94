package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/faults"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/sim"
)

// span is one timed call the benchmark made into a layer; the spans of one
// repetition share rep.
type span struct {
	name       string
	rep        int
	start, end time.Duration // since clockOrigin
}

// tracer keeps every span of the traced repetitions in memory, and
// CPU-profiles each traced repetition's set-up and run (not the checks or
// the forced collection between repetitions). A nil tracer records
// nothing, which is how untraced repetitions run.
type tracer struct {
	rep     int
	spans   []span
	prof    bytes.Buffer
	profile *tally
}

func newTracer() *tracer { return &tracer{profile: newTally()} }

// startRep opens repetition i and starts its CPU profile.
func (t *tracer) startRep(i int) error {
	if t == nil {
		return nil
	}
	t.rep = i
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// endRep stops the repetition's profile and buckets it into layers.
func (t *tracer) endRep() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.profile.add(t.prof.Bytes())
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, rep: t.rep, start: now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = now()
}

// perRep sums the durations of the spans called name in each repetition.
func (t *tracer) perRep(name string, reps int) []float64 {
	out := make([]float64, reps)
	for _, s := range t.spans {
		if s.name == name && s.rep < reps {
			out[s.rep] += (s.end - s.start).Seconds()
		}
	}
	return out
}

// clockOrigin anchors now. Durations since it read only the monotonic
// clock, half the cost of time.Now, which matters inside the handler
// decorator.
var clockOrigin = time.Now()

func now() time.Duration { return time.Since(clockOrigin) }

// timedProto times a protocol's activations from outside: Deliver and
// LinkEvent spans on the node, Send and Multicast spans through its Env.
// Each node has its own wrapper, and a node's activations all run on the
// goroutine that owns it, so the sums need no synchronisation even when
// shards run in parallel.
type timedProto struct {
	inner   core.Protocol
	env     timedEnv
	deliver time.Duration
}

// timedEnv is the Env handed to the wrapped protocol.
type timedEnv struct {
	core.Env
	send time.Duration
}

func (e *timedEnv) Send(h anr.Header, payload any) error {
	t := now()
	err := e.Env.Send(h, payload)
	e.send += now() - t
	return err
}

func (e *timedEnv) Multicast(hs []anr.Header, payload any) error {
	t := now()
	err := e.Env.Multicast(hs, payload)
	e.send += now() - t
	return err
}

func (p *timedProto) Init(env core.Env) {
	p.env.Env = env
	p.inner.Init(&p.env)
}

func (p *timedProto) Deliver(env core.Env, pkt core.Packet) {
	p.env.Env = env
	t := now()
	p.inner.Deliver(&p.env, pkt)
	p.deliver += now() - t
}

func (p *timedProto) LinkEvent(env core.Env, port core.Port) {
	p.env.Env = env
	t := now()
	p.inner.LinkEvent(&p.env, port)
	p.deliver += now() - t
}

// RequiresFIFO forwards the wrapped protocol's capability, so wrapping never
// changes how a runtime treats the protocol.
func (p *timedProto) RequiresFIFO() bool { return core.RequiresFIFO(p.inner) }

var _ core.FIFORequirer = (*timedProto)(nil)

// runtimeLedger accumulates runtime counters over the run calls of a phase,
// read from runtime/metrics (and the GC pause total from MemStats) at each
// run's start and end. A nil ledger does nothing.
type runtimeLedger struct {
	samples []metrics.Sample
	start   ledgerRead
	sum     ledgerRead
	runs    int
}

type ledgerRead struct {
	gcCycles, allocBytes, allocObjects, gcCPU, totalCPU, pauseSeconds float64
}

func newRuntimeLedger() *runtimeLedger {
	names := []string{
		"/gc/cycles/total:gc-cycles",
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	}
	l := &runtimeLedger{samples: make([]metrics.Sample, len(names))}
	for i, n := range names {
		l.samples[i].Name = n
	}
	return l
}

func (l *runtimeLedger) read() ledgerRead {
	metrics.Read(l.samples)
	v := make([]float64, len(l.samples))
	for i, s := range l.samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ledgerRead{v[0], v[1], v[2], v[3], v[4], float64(ms.PauseTotalNs) / 1e9}
}

func (l *runtimeLedger) begin() {
	if l != nil {
		l.start = l.read()
	}
}

func (l *runtimeLedger) end() {
	if l == nil {
		return
	}
	e := l.read()
	l.sum.gcCycles += e.gcCycles - l.start.gcCycles
	l.sum.allocBytes += e.allocBytes - l.start.allocBytes
	l.sum.allocObjects += e.allocObjects - l.start.allocObjects
	l.sum.gcCPU += e.gcCPU - l.start.gcCPU
	l.sum.totalCPU += e.totalCPU - l.start.totalCPU
	l.sum.pauseSeconds += e.pauseSeconds - l.start.pauseSeconds
	l.runs++
}

// perLayer is the traced run. Every repetition's instance runs twice in
// this process, untraced (runtime counters, host cost per hop and per
// system call, the determinism baseline) and traced (spans, handler
// decorator, CPU profile), alternating which goes first so host drift
// cancels in the tracing overhead. Then come the standalone spans and
// checks. End-to-end metrics never come from here.
func perLayer(w *workload, seed int64, budget time.Duration) (*result, error) {
	res := &result{}
	rt := newRuntimeLedger()
	tr := newTracer()
	var plain, traced []rep
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		for k := 0; k < 2; k++ {
			// Start every repetition from a collected heap, so one
			// instance's garbage is not paid for by the next one's timings.
			runtime.GC()
			if (i+k)%2 == 0 {
				r, err := runRep(w, seed, i, nil, rt)
				if err != nil {
					return nil, err
				}
				plain = append(plain, r)
			} else {
				r, err := runRep(w, seed, i, tr, nil)
				if err != nil {
					return nil, err
				}
				traced = append(traced, r)
			}
		}
	}
	res.info("reps: untraced=%d traced=%d", len(plain), len(traced))

	plainOps, hops, syscalls, runSeconds := 0, 0.0, 0.0, 0.0
	for i, r := range plain {
		res.absorb(i, r.out)
		plainOps += r.out.ops
		hops += float64(r.out.metrics.Hops)
		syscalls += float64(r.out.metrics.Syscalls())
		runSeconds += r.run.Seconds()
	}
	for i, r := range traced {
		res.absorb(i, r.out)
	}
	// The same instances ran untraced and traced: their counters must agree
	// exactly, which is both the repeated-run determinism check and the
	// proof that tracing is transparent.
	for i := range plain {
		if d := diffCounters(plain[i].out.counters, traced[i].out.counters); d != "" {
			res.fail(traced[i].out.ops, "rep %d: untraced and traced runs differ: %s", i, d)
		}
	}
	if w.invariance != nil {
		if err := w.invariance(instanceSeed(seed, 0), traced[0].out); err != nil {
			res.fail(traced[0].out.ops, "rep 0: %v", err)
		}
	}

	vals := make(map[string]float64)
	for _, c := range traced[0].out.counters {
		vals[c.Name] = c.Value
	}

	// Spans and their shares of a repetition's host time (setup + run).
	n := len(traced)
	repSeconds := make([]float64, n)
	for i, r := range traced {
		repSeconds[i] = (r.setup + r.run).Seconds()
	}
	frac := func(xs []float64) float64 {
		f := make([]float64, n)
		for i := range xs {
			f[i] = xs[i] / repSeconds[i]
		}
		return median(f)
	}
	run := tr.perRep("sim.run", n)
	vals["graph.gnp_s"] = median(tr.perRep("graph.gnp", n))
	vals["sim.run_s"] = median(run)
	vals["sim.new_frac"] = frac(tr.perRep("sim.new", n))
	vals["topology.records_frac"] = frac(tr.perRep("topology.records", n))
	vals["topology.preload_frac"] = frac(tr.perRep("topology.preload", n))
	if w.decorated {
		deliverSelf, send, spineSelf := make([]float64, n), make([]float64, n), make([]float64, n)
		for i, r := range traced {
			deliverSelf[i] = r.out.deliver - r.out.send
			send[i] = r.out.send
			spineSelf[i] = run[i] - r.out.deliver
		}
		vals["topology.deliver_frac"] = frac(deliverSelf)
		vals["sim.send_frac"] = frac(send)
		vals["sim.spine_self_frac"] = frac(spineSelf)
	}
	g := traced[0].g
	vals["graph.partition_s"] = medianOf3(func() {
		graph.PartitionK(g, graph.PartitionOptions{
			K: 2, Seed: instanceSeed(seed, 0),
			EdgeDelay: func(u, v graph.NodeID) int64 { return w.partitionDelay },
		})
	})
	if w.pairTable != nil {
		var ptErr error
		pt := medianOf3(func() {
			if err := w.pairTable(g, instanceSeed(seed, 0)); err != nil {
				ptErr = err
			}
		})
		if ptErr != nil {
			return nil, fmt.Errorf("standalone pair table: %w", ptErr)
		}
		vals["load.pairtable_frac"] = pt / median(repSeconds)
	}

	// Host cost per unit of the paper's two cost measures, untraced.
	vals["sim.ns_per_hop"] = runSeconds / hops * 1e9
	vals["sim.ns_per_syscall"] = runSeconds / syscalls * 1e9

	runs := float64(rt.runs)
	vals["runtime.gc_cycles"] = rt.sum.gcCycles / runs
	vals["runtime.gc_pause_s"] = rt.sum.pauseSeconds / runs
	if rt.sum.totalCPU > 0 {
		vals["runtime.gc_cpu_frac"] = rt.sum.gcCPU / rt.sum.totalCPU
	}
	vals["runtime.alloc_bytes_per_op"] = rt.sum.allocBytes / float64(plainOps)
	vals["runtime.allocs_per_op"] = rt.sum.allocObjects / float64(plainOps)

	prof := tr.profile
	res.info("profile samples=%d; top module functions, flat:%s", prof.total, prof.top(prof.flat, 10))
	res.info("top module functions, cumulative:%s", prof.top(prof.cum, 16))
	for _, l := range layers {
		vals[l.metric] = float64(prof.layers[l.name]) / float64(prof.total)
	}

	ratios := make([]float64, n)
	for i := range ratios {
		ratios[i] = traced[i].opsPerSec() / plain[i].opsPerSec()
	}
	vals["trace.overhead_frac"] = median(ratios)

	for _, m := range perLayerMetrics {
		res.add(m.Name, m.Unit, vals[m.Name])
	}
	return res, nil
}

// medianOf3 times f three times and returns the median in seconds.
func medianOf3(f func()) float64 {
	var ts [3]float64
	for i := range ts {
		t := time.Now()
		f()
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts[:])
}

// diffCounters describes the first difference between two counter sets, or
// returns "" when they are identical.
func diffCounters(a, b []metric) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d counters vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s: %v vs %v", a[i].Name, a[i].Value, b[i].Value)
		}
	}
	return ""
}

// perLayerMetrics is every metric a traced run reports, on every workload.
// A layer a workload does not drive from the benchmark reports 0.
var perLayerMetrics = func() []metric {
	ms := []metric{
		{Name: "graph.gnp_s", Unit: "s"},
		{Name: "graph.partition_s", Unit: "s"},
		{Name: "sim.run_s", Unit: "s"},
		{Name: "sim.new_frac", Unit: "share"},
		{Name: "topology.records_frac", Unit: "share"},
		{Name: "topology.preload_frac", Unit: "share"},
		{Name: "load.pairtable_frac", Unit: "share"},
		{Name: "topology.deliver_frac", Unit: "share"},
		{Name: "sim.send_frac", Unit: "share"},
		{Name: "sim.spine_self_frac", Unit: "share"},
		{Name: "sim.ns_per_hop", Unit: "ns"},
		{Name: "sim.ns_per_syscall", Unit: "ns"},
	}
	ms = append(ms, simCounters(core.Metrics{}, sim.SchedStats{}, sim.ShardInfo{})...)
	ms = append(ms, loadCounters(&load.Stats{})...)
	ms = append(ms, soakCounters(&faults.Result{})...)
	ms = append(ms,
		metric{Name: "runtime.gc_cycles", Unit: "count"},
		metric{Name: "runtime.gc_pause_s", Unit: "s"},
		metric{Name: "runtime.gc_cpu_frac", Unit: "share"},
		metric{Name: "runtime.alloc_bytes_per_op", Unit: "B"},
		metric{Name: "runtime.allocs_per_op", Unit: "count"},
	)
	for _, l := range layers {
		ms = append(ms, metric{Name: l.metric, Unit: "share"})
	}
	return append(ms, metric{Name: "trace.overhead_frac", Unit: "ratio"})
}()
