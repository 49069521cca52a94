package experiments

import (
	"fmt"
	"math/bits"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/runner"
	"fastnet/internal/sim"
	"fastnet/internal/topology"
)

// E1BroadcastVsFlooding reproduces §3's headline comparison: per broadcast,
// branching paths cost n system calls and O(log n) time; flooding costs
// Θ(m) system calls and up to Θ(n) time.
func E1BroadcastVsFlooding(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "broadcast cost per topology update",
		Columns: []string{"topology", "n", "m", "branch.syscalls", "branch.time", "flood.syscalls", "flood.time", "syscall.ratio"},
		Notes: []string{
			"syscalls = packet deliveries per broadcast (origin's trigger excluded)",
			"paper: branching = n-1 deliveries, O(log n) time; flooding = O(m), O(n) time",
		},
	}
	type workload struct {
		name string
		g    *graph.Graph
	}
	var ws []workload
	for _, n := range []int{16, 64, 256, 1024} {
		ws = append(ws, workload{fmt.Sprintf("gnp(%d)", n), graph.GNP(n, 4.0/float64(n), int64(n))})
	}
	ws = append(ws,
		workload{"grid(16x16)", graph.Grid(16, 16)},
		workload{"arpanet", graph.ARPANET()},
		workload{"path(256)", graph.Path(256)},
	)
	// Each workload's branch/flood pair is independent of every other row, so
	// the sweep fans out through the worker pool; rows render in input order.
	type pair struct{ branch, flood topology.BroadcastResult }
	results, err := runner.Map(rc.workers(), ws, func(w workload) (pair, error) {
		b, err := topology.SingleBroadcast(w.g, 0, topology.ModeBranching, rc.Opts...)
		if err != nil {
			return pair{}, err
		}
		f, err := topology.SingleBroadcast(w.g, 0, topology.ModeFlood, rc.Opts...)
		if err != nil {
			return pair{}, err
		}
		return pair{b, f}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range results {
		w := ws[i]
		ratio := float64(p.flood.Metrics.Deliveries) / float64(p.branch.Metrics.Deliveries)
		t.AddRow(w.name, w.g.N(), w.g.M(),
			p.branch.Metrics.Deliveries, p.branch.Metrics.FinishTime,
			p.flood.Metrics.Deliveries, p.flood.Metrics.FinishTime,
			fmt.Sprintf("%.2f", ratio))
	}
	return t, nil
}

// E2BroadcastTime verifies Theorem 2 on many tree shapes: the measured
// broadcast time never exceeds floor(log2 n)+1 rounds.
func E2BroadcastTime(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "branching-paths broadcast time vs the log2 n bound",
		Columns: []string{"tree", "n", "rounds", "bound=floor(log2 n)+1", "ok"},
		Notes: []string{
			"rounds = finish time minus the trigger's own activation (C=0, P=1)",
		},
	}
	type workload struct {
		name string
		g    *graph.Graph
	}
	ws := []workload{
		{"path(1024)", graph.Path(1024)},
		{"star(1024)", graph.Star(1024)},
		{"cbt(depth 10)", graph.CompleteBinaryTree(10)},
		{"caterpillar(128x7)", graph.Caterpillar(128, 7)},
	}
	for _, seed := range []int64{1, 2, 3} {
		ws = append(ws, workload{fmt.Sprintf("randomtree(2048,seed %d)", seed), graph.RandomTree(2048, seed)})
	}
	for _, w := range ws {
		res, err := topology.SingleBroadcast(w.g, 0, topology.ModeBranching, rc.Opts...)
		if err != nil {
			return nil, err
		}
		rounds := int(res.Metrics.FinishTime) - 1
		bound := bits.Len(uint(w.g.N()))
		t.AddRow(w.name, w.g.N(), rounds, bound, rounds <= bound)
	}
	return t, nil
}

// E3LowerBound measures broadcast rounds on complete binary trees: the
// branching-paths algorithm needs Θ(log n) rounds, matching Theorem 3's
// Ω(log n) lower bound for one-way broadcast within a constant factor.
func E3LowerBound(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "one-way broadcast rounds on complete binary trees",
		Columns: []string{"depth", "n", "rounds", "log2(n)", "rounds/log2(n)"},
		Notes: []string{
			"Theorem 3: any one-way broadcast needs Omega(log n) rounds on these trees",
		},
	}
	for depth := 2; depth <= 14; depth += 2 {
		g := graph.CompleteBinaryTree(depth)
		res, err := topology.SingleBroadcast(g, 0, topology.ModeBranching, rc.Opts...)
		if err != nil {
			return nil, err
		}
		rounds := int(res.Metrics.FinishTime) - 1
		log2n := bits.Len(uint(g.N())) - 1
		t.AddRow(depth, g.N(), rounds, log2n,
			fmt.Sprintf("%.2f", float64(rounds)/float64(log2n)))
	}
	return t, nil
}

// sixNodeExample builds the paper's §3 non-convergence scenario.
func sixNodeExample() (*graph.Graph, []topology.Change) {
	g := graph.New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(2, 5)
	return g, []topology.Change{
		{Round: 1, U: 0, V: 3, Up: false},
		{Round: 1, U: 1, V: 4, Up: false},
		{Round: 1, U: 2, V: 5, Up: false},
	}
}

// cyclicOrder is the adversarial DFS child order of the example.
func cyclicOrder(parent core.NodeID, children []core.NodeID) []core.NodeID {
	if parent > 2 {
		return children
	}
	pref := (parent + 1) % 3
	out := make([]core.NodeID, 0, len(children))
	for _, c := range children {
		if c == pref {
			out = append(out, c)
		}
	}
	for _, c := range children {
		if c != pref {
			out = append(out, c)
		}
	}
	return out
}

// E4DeadlockExample runs the six-node example under one-shot DFS (which
// must never converge) and under branching paths and flooding (which must).
func E4DeadlockExample(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "the six-node example after three simultaneous link failures",
		Columns: []string{"protocol", "converged", "rounds.after.change", "rounds.run"},
		Notes: []string{
			"DFS uses the paper's adversarial child order; 30 rounds simulated",
		},
	}
	for _, mode := range []topology.Mode{topology.ModeDFS, topology.ModeBranching, topology.ModeFlood} {
		g, changes := sixNodeExample()
		res, err := topology.RunConvergence(g, topology.ConvOptions{
			Mode: mode, Order: cyclicOrder, Warm: true, MaxRounds: 30, SimOpts: rc.Opts,
		}, changes)
		if err != nil {
			return nil, err
		}
		ran := res.Round
		if !res.Converged {
			ran = 30
		}
		t.AddRow(mode, res.Converged, res.RoundsAfterChanges, ran)
	}
	return t, nil
}

// E5Convergence measures rounds to eventual consistency after failure
// bursts: O(d) with plain broadcasts, O(log d) when nodes broadcast all
// they know (the comment after Theorem 1).
func E5Convergence(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "rounds to eventual consistency after changes stop",
		Columns: []string{"topology", "n", "diameter", "plain.rounds", "fullknowledge.rounds"},
	}
	type workload struct {
		name    string
		g       *graph.Graph
		changes []topology.Change
	}
	mk := func(name string, g *graph.Graph, seed int64) workload {
		// Fail two edges at rounds 1 and 2, restore one at round 3.
		es := g.Edges()
		a, b := es[int(seed)%len(es)], es[(int(seed)*7+3)%len(es)]
		return workload{name: name, g: g, changes: []topology.Change{
			{Round: 1, U: a.U, V: a.V, Up: false},
			{Round: 2, U: b.U, V: b.V, Up: false},
			{Round: 3, U: a.U, V: a.V, Up: true},
		}}
	}
	ws := []workload{
		mk("gnp(64)", graph.GNP(64, 0.08, 9), 5),
		mk("grid(8x8)", graph.Grid(8, 8), 11),
		mk("arpanet", graph.ARPANET(), 3),
		mk("path(65)", graph.Path(65), 20),
	}
	// Cold start: knowledge must still spread across the network after the
	// burst, so the plain variant needs O(d) rounds and the full-knowledge
	// variant O(log d). The per-workload pairs are independent runs, so they
	// fan out through the worker pool and render in input order.
	type pair struct{ plain, full topology.ConvergenceResult }
	results, err := runner.Map(rc.workers(), ws, func(w workload) (pair, error) {
		plain, err := topology.RunConvergence(w.g, topology.ConvOptions{
			Mode: topology.ModeBranching, MaxRounds: 200, SimOpts: rc.Opts,
		}, w.changes)
		if err != nil {
			return pair{}, err
		}
		full, err := topology.RunConvergence(w.g, topology.ConvOptions{
			Mode: topology.ModeBranching, Full: true, MaxRounds: 200, SimOpts: rc.Opts,
		}, w.changes)
		if err != nil {
			return pair{}, err
		}
		return pair{plain, full}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, p := range results {
		t.AddRow(ws[i].name, ws[i].g.N(), ws[i].g.Diameter(),
			convLabel(p.plain), convLabel(p.full))
	}
	t.Notes = append(t.Notes, "cold start: databases empty before round 1; rounds counted after the last change")
	return t, nil
}

func convLabel(r topology.ConvergenceResult) string {
	if !r.Converged {
		return "never"
	}
	return fmt.Sprintf("%d", r.RoundsAfterChanges)
}

// E14BFSLayers exercises footnote 1: a single-walk broadcast takes one time
// unit but needs Θ(n·d)-hop headers, so it is only legal with a relaxed
// path-length restriction.
func E14BFSLayers(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "BFS-layers walk broadcast: time 1, header Theta(n*d)",
		Columns: []string{"tree", "n", "time", "walk.hops", "legal.dmax=n", "legal.dmax=0"},
		Notes: []string{
			"time excludes the trigger activation; hops measure the single walk's length",
		},
	}
	type workload struct {
		name string
		g    *graph.Graph
	}
	ws := []workload{
		{"path(64)", graph.Path(64)},
		{"cbt(depth 7)", graph.CompleteBinaryTree(7)},
		{"randomtree(256)", graph.RandomTree(256, 6)},
		{"star(128)", graph.Star(128)},
	}
	for _, w := range ws {
		res, err := topology.SingleBroadcast(w.g, 0, topology.ModeLayers, rc.Opts...)
		if err != nil {
			return nil, err
		}
		withN, err := layersLegalUnderDmax(rc, w.g, w.g.N())
		if err != nil {
			return nil, err
		}
		t.AddRow(w.name, w.g.N(), res.Metrics.FinishTime-1, res.Metrics.Hops, withN, true)
	}
	return t, nil
}

// layersLegalUnderDmax reports whether the layered walk fits within dmax.
func layersLegalUnderDmax(rc Ctx, g *graph.Graph, dmax int) (bool, error) {
	net := sim.New(g, topology.NewMaintainer(topology.ModeLayers, false, nil),
		rc.opts(sim.WithDelays(0, 1), sim.WithDmax(dmax))...)
	recs := topology.RecordsForGraph(g, net.PortMap(), nil)
	net.Protocol(0).(topology.Maintainer).Preload(recs)
	net.Inject(0, 0, topology.Trigger{})
	if _, err := net.Run(); err != nil {
		return false, err
	}
	wb, ok := net.Protocol(0).(*topology.WalkBroadcast)
	if !ok {
		return false, fmt.Errorf("experiments: unexpected protocol type")
	}
	return wb.SendErrors == 0, nil
}
