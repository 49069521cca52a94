package faults

import (
	"fmt"

	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/load"
	"fastnet/internal/sim"
)

// runOpenLoop is the soak's open-loop mode: a rising-pressure rate sweep of
// the load engine instead of the churn loop. Epoch e offers Rate*(e+1) calls
// per tick for Config.Calls arrivals, under the configured fault schedule
// and capacity limits, and checks invariant I9 on every run:
//
//	I9a (conservation): Generated == Delivered + Blocked + Dropped — the
//	    open-loop ledger settles every generated call exactly once;
//	I9b (declared overload): calls are blocked or dropped only when an
//	    overload source is declared — a capacity limit (NCUCap/LinkCap) or
//	    a nonzero fault profile. A clean, uncapped fabric must deliver
//	    every call no matter the offered rate.
//
// Epoch seeds are decorrelated from each other and from the base seed, so
// consecutive epochs are independent draws of the same scenario family; the
// whole sweep remains a pure function of (graph, Config).
func runOpenLoop(g *graph.Graph, cfg Config, opts []sim.Option) (*Result, error) {
	res := &Result{}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		profile := cfg.schedule().Profile(epoch)
		lc := load.Config{
			Seed:    cfg.Seed*1000003 + int64(epoch)*65599 + 17,
			Calls:   cfg.Calls,
			Rate:    cfg.Rate * float64(epoch+1),
			Holding: core.Time(cfg.olHolding()),
			Zipf:    cfg.ZipfS,
			Faults:  profile,
			Capacity: core.Capacity{
				NCUQueue: cfg.NCUCap,
				LinkRate: cfg.LinkCap,
			},
		}
		s, err := load.Run(g, lc, opts...)
		if err != nil {
			return res, err
		}
		res.OLRuns++
		res.OL.Merge(s)
		res.Metrics = res.OL.Net
		if s.Generated != s.Delivered+s.Blocked+s.Dropped {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"epoch %d: invariant I9 violated: ledger leak at rate %g: generated=%d delivered=%d blocked=%d dropped=%d",
				epoch, lc.Rate, s.Generated, s.Delivered, s.Blocked, s.Dropped))
			return res, nil
		}
		if !lc.Capacity.Enabled() && !profile.Enabled() && s.Blocked+s.Dropped != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"epoch %d: invariant I9 violated: undeclared overload at rate %g: blocked=%d dropped=%d on a clean uncapped fabric",
				epoch, lc.Rate, s.Blocked, s.Dropped))
			return res, nil
		}
		res.Epochs++
		if w := cfg.Verbose; w != nil {
			fmt.Fprintf(w, "epoch %d ok: %s\n", epoch, res.Line())
		}
	}
	return res, nil
}
