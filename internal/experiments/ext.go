package experiments

import (
	"fmt"
	"math"

	"fastnet/internal/core"
	"fastnet/internal/election"
	"fastnet/internal/graph"
	"fastnet/internal/pif"
	"fastnet/internal/topology"
	"fastnet/internal/traffic"
)

// E15HeaderGrowth is an extension experiment: it measures the ANR header
// overhead that motivates the paper's path-length restriction (§2). Source
// routes grow linearly with the path, so the wire overhead per packet is
// k+1 bits per hop; the BFS-layers walk (footnote 1) needs Θ(n·d)-hop
// headers while every §3/§4 algorithm stays within dmax = O(n).
func E15HeaderGrowth(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E15",
		Title:   "extension: ANR header growth per algorithm",
		Columns: []string{"workload", "n", "id.bits", "max.header.hops", "dmax", "avg.header.bits"},
		Notes: []string{
			"avg.header.bits = total header bits / packets; id.bits = k (per-hop copy bit extra)",
			"the layers walk needs headers far beyond dmax=n — the paper's reason to restrict path length",
		},
	}
	add := func(name string, n int, width int, m core.Metrics, dmax int) {
		avg := "-"
		if m.Packets > 0 {
			avg = fmt.Sprintf("%.1f", float64(m.HeaderBits)/float64(m.Packets))
		}
		t.AddRow(name, n, width, m.MaxHeaderHops, dmaxLabel(dmax), avg)
	}
	for _, n := range []int{64, 256, 1024} {
		g := graph.RandomTree(n, 7)
		width := core.NewPortMap(g).IDWidth()
		b, err := topology.SingleBroadcast(g, 0, topology.ModeBranching, rc.Opts...)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("broadcast/tree(%d)", n), n, width, b.Metrics, topology.DefaultDmax(topology.ModeBranching, n))
		l, err := topology.SingleBroadcast(g, 0, topology.ModeLayers, rc.Opts...)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("layers-walk/tree(%d)", n), n, width, l.Metrics, 0)
	}
	for _, n := range []int{64, 256, 1024} {
		g := graph.GNP(n, 4.0/float64(n), int64(n))
		width := core.NewPortMap(g).IDWidth()
		res, err := election.Run(g, election.AlgoToken, allStarters(n), rc.Opts...)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("election/gnp(%d)", n), n, width, res.Metrics, election.Dmax(n))
	}
	return t, nil
}

func dmaxLabel(d int) string {
	if d == 0 {
		return "unrestricted"
	}
	return fmt.Sprintf("%d", d)
}

// E18DataVsControl quantifies the paper's introductory premise: bulk
// user-to-user traffic rides the switching hardware (zero transit system
// calls), so only the control algorithms compete for the NCU. The same
// flows pushed through a traditional store-and-forward discipline pay one
// software activation per hop and saturate relay processors.
func E18DataVsControl(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E18",
		Title:   "extension: data plane on hardware vs store-and-forward",
		Columns: []string{"topology", "flows x pkts", "discipline", "syscalls", "transit.syscalls", "time", "max.transit.util"},
		Notes: []string{
			"C=1, P=5 (software five times slower than a hop); flows are random src/dst pairs",
			"with ANR the relays' processors stay idle — the premise of the paper's model",
		},
	}
	type workload struct {
		name  string
		g     *graph.Graph
		flows int
		pkts  int
	}
	ws := []workload{
		{"arpanet", graph.ARPANET(), 8, 100},
		{"grid(8x8)", graph.Grid(8, 8), 16, 100},
		{"gnp(128)", graph.GNP(128, 4.0/128, 9), 32, 50},
	}
	for _, w := range ws {
		flows := traffic.RandomFlows(w.g, w.flows, w.pkts, 11)
		for _, d := range []traffic.Discipline{traffic.Hardware, traffic.StoreAndForward} {
			res, err := traffic.Run(w.g, flows, d, 1, 5, rc.Opts...)
			if err != nil {
				return nil, err
			}
			t.AddRow(w.name, fmt.Sprintf("%dx%d", w.flows, w.pkts), d,
				res.Metrics.Syscalls(), res.TransitSyscalls, res.Metrics.FinishTime,
				fmt.Sprintf("%.2f", res.MaxTransitUtilization))
		}
	}
	return t, nil
}

// E16HardwareAblation is an extension experiment answering the paper's
// closing question: with a register-and-compare stage in the switches (the
// §2 extended model), ring election needs only ~2n NCU involvements and a
// few lines of control software, trading software work for Θ(n²) worst-case
// hardware hops. The token algorithm and Hirschberg–Sinclair run on the
// same rings for comparison.
func E16HardwareAblation(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E16",
		Title:   "extension: election with compare-capable switching hardware",
		Columns: []string{"n", "hw.syscalls", "hw.hops", "hw.time", "token.syscalls", "token.hops", "hs.syscalls", "hs.hops"},
		Notes: []string{
			"hw.syscalls counts all NCU activations incl. START injections and announce copies",
			"the hardware variant moves the comparison work into the switches: few system calls, many hops",
		},
	}
	for _, n := range []int{32, 128, 512} {
		hw, err := election.RunHWRing(n, nil, rc.Opts...)
		if err != nil {
			return nil, err
		}
		ring := graph.Ring(n)
		tok, err := election.Run(ring, election.AlgoToken, allStarters(n), rc.Opts...)
		if err != nil {
			return nil, err
		}
		hs, err := election.Run(ring, election.AlgoHS, allStarters(n), rc.Opts...)
		if err != nil {
			return nil, err
		}
		t.AddRow(n,
			hw.Metrics.Syscalls(), hw.Metrics.Hops, hw.Metrics.FinishTime,
			tok.Metrics.Syscalls(), tok.Metrics.Hops,
			hs.Metrics.Syscalls(), hs.Metrics.Hops)
	}
	return t, nil
}

// E19PIF answers the conclusion's "can other distributed algorithms be
// similarly improved?" with broadcast-with-feedback (PIF): the §3
// branching-paths broadcast down plus a §5 optimal-tree convergecast up
// gives O(n) system calls and O(log n) time end to end, where direct
// acknowledgements serialize the root's NCU for Θ(n) time.
func E19PIF(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E19",
		Title:   "extension: broadcast-with-feedback (PIF) under the new model",
		Columns: []string{"n", "echo", "syscalls", "finish", "log2n", "finish/log2n"},
		Notes: []string{
			"C=0, P=1; random trees; syscalls = broadcast deliveries + ack deliveries",
		},
	}
	for _, n := range []int{64, 256, 1024, 4096} {
		g := graph.RandomTree(n, 7)
		for _, mode := range []pif.EchoMode{pif.EchoOptimal, pif.EchoDirect} {
			res, err := pif.Run(g, 0, mode, 0, 1, rc.Opts...)
			if err != nil {
				return nil, err
			}
			log2n := math.Log2(float64(n))
			t.AddRow(n, mode, res.Metrics.Deliveries, res.Finish,
				fmt.Sprintf("%.1f", log2n),
				fmt.Sprintf("%.2f", float64(res.Finish)/log2n))
		}
	}
	return t, nil
}
