package experiments

import (
	"errors"
	"fmt"
	"math"

	"fastnet/internal/globalfn"
)

// E8Binomial reproduces §5 example 1 (C=0, P=1): S(k) = 2^(k-1) and the
// optimal tree is the binomial tree; simulated completion matches k.
func E8Binomial(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "C=0, P=1: binomial trees",
		Columns: []string{"k", "S(k)", "2^(k-1)", "match", "sim.finish"},
		Notes: []string{
			"sim.finish simulates OT(k) with exact delays; '-' = not simulated (too large)",
		},
	}
	p := globalfn.Params{C: 0, P: 1}
	for k := globalfn.Time(1); k <= 20; k++ {
		s, err := p.S(k)
		if err != nil {
			return nil, err
		}
		want := int64(1) << (k - 1)
		simFinish := "-"
		if s <= 4096 {
			tr, err := p.OptimalTree(k)
			if err != nil {
				return nil, err
			}
			res, err := globalfn.Execute(tr, p, make([]globalfn.Value, tr.Size), globalfn.Sum, false, rc.Opts...)
			if err != nil {
				return nil, err
			}
			simFinish = fmt.Sprintf("%d", res.Finish)
		}
		t.AddRow(k, s, want, s == want, simFinish)
	}
	return t, nil
}

// E9Fibonacci reproduces §5 example 3 (C=1, P=1): S(k) follows the
// Fibonacci numbers, matching closed form (11) (Binet's formula).
func E9Fibonacci(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "C=1, P=1: Fibonacci growth",
		Columns: []string{"k", "S(k)", "binet(k)", "match", "sim.finish"},
	}
	p := globalfn.Params{C: 1, P: 1}
	phi := (1 + math.Sqrt(5)) / 2
	psi := (1 - math.Sqrt(5)) / 2
	for k := globalfn.Time(1); k <= 30; k++ {
		s, err := p.S(k)
		if err != nil {
			return nil, err
		}
		binet := int64(math.Round((math.Pow(phi, float64(k)) - math.Pow(psi, float64(k))) / math.Sqrt(5)))
		simFinish := "-"
		if s <= 4096 {
			tr, err := p.OptimalTree(k)
			if err != nil {
				return nil, err
			}
			res, err := globalfn.Execute(tr, p, make([]globalfn.Value, tr.Size), globalfn.Sum, false, rc.Opts...)
			if err != nil {
				return nil, err
			}
			simFinish = fmt.Sprintf("%d", res.Finish)
		}
		t.AddRow(k, s, binet, s == binet, simFinish)
	}
	return t, nil
}

// E10Traditional reproduces §5 example 2 (C=1, P=0): the recursion blows up
// and a star of any size finishes in constant time — the traditional model
// hides the software bottleneck entirely.
func E10Traditional(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "C=1, P=0: the traditional model degenerates",
		Columns: []string{"n", "star.finish", "recursion"},
		Notes: []string{
			"star.finish simulates an n-node star with P=0: constant C regardless of n",
		},
	}
	p := globalfn.Params{C: 1, P: 0}
	_, err := p.S(5)
	recursion := "defined"
	if errors.Is(err, globalfn.ErrTraditional) {
		recursion = "blows up (unbounded star)"
	} else if err != nil {
		return nil, err
	}
	for _, n := range []int{2, 16, 128, 1024} {
		res, err := globalfn.Execute(globalfn.Star(n), p, make([]globalfn.Value, n), globalfn.Sum, false, rc.Opts...)
		if err != nil {
			return nil, err
		}
		t.AddRow(n, res.Finish, recursion)
	}
	return t, nil
}

// E11OptimalTime sweeps (C, P) regimes and checks that the predicted
// optimal completion time t* = min{t : S(t) >= n} is achieved exactly by
// simulating OT(t*) under worst-case delays.
func E11OptimalTime(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "predicted vs simulated optimal completion times",
		Columns: []string{"C", "P", "n", "t*", "S(t*)", "sim.finish", "exact"},
	}
	params := []globalfn.Params{
		{C: 0, P: 1}, {C: 1, P: 1}, {C: 1, P: 2}, {C: 2, P: 1},
		{C: 3, P: 2}, {C: 8, P: 1}, {C: 1, P: 8}, {C: 5, P: 5},
	}
	for _, p := range params {
		for _, n := range []int64{16, 256, 4096} {
			tstar, err := p.OptimalTime(n)
			if err != nil {
				return nil, err
			}
			s, err := p.S(tstar)
			if err != nil {
				return nil, err
			}
			if s > 1<<20 {
				t.AddRow(p.C, p.P, n, tstar, s, "-", "-")
				continue
			}
			tr, err := p.OptimalTree(tstar)
			if err != nil {
				return nil, err
			}
			res, err := globalfn.Execute(tr, p, make([]globalfn.Value, tr.Size), globalfn.Sum, false, rc.Opts...)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.C, p.P, n, tstar, s, res.Finish, globalfn.Time(res.Finish) == tstar)
		}
	}
	return t, nil
}

// E17Duality is an extension experiment: the time-reversal dual of the §5
// gather. Disseminating one value over OT(t*) with one send per activation
// (the postal-model discipline of [BK92], which the paper cites as the
// follow-up of its §5 model) finishes at exactly the same optimal time as
// gathering — every branch of the optimal tree is critical.
func E17Duality(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E17",
		Title:   "extension: gather/dissemination duality over optimal trees",
		Columns: []string{"C", "P", "n", "t*", "gather.finish", "dissem.finish", "equal"},
	}
	for _, p := range []globalfn.Params{{C: 0, P: 1}, {C: 1, P: 1}, {C: 3, P: 2}, {C: 1, P: 8}} {
		for _, n := range []int64{16, 256, 2048} {
			tstar, err := p.OptimalTime(n)
			if err != nil {
				return nil, err
			}
			tr, err := p.OptimalTree(tstar)
			if err != nil {
				return nil, err
			}
			g, err := globalfn.Execute(tr, p, make([]globalfn.Value, tr.Size), globalfn.Sum, false, rc.Opts...)
			if err != nil {
				return nil, err
			}
			d, err := globalfn.Disseminate(tr, p, 1, rc.Opts...)
			if err != nil {
				return nil, err
			}
			t.AddRow(p.C, p.P, n, tstar, g.Finish, d.Finish,
				g.Finish == d.Finish && globalfn.Time(d.Finish) == tstar)
		}
	}
	return t, nil
}

// E12StarVsTree traces the §5 punchline: even on a complete graph the
// optimal structure depends on P/C — the star (the traditional optimum)
// loses to the optimal tree as soon as software delay matters.
func E12StarVsTree(rc Ctx) (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "star vs optimal tree completion, n = 64, C = 8",
		Columns: []string{"P", "star.pred", "star.sim", "ot.t*", "ot.sim", "winner"},
		Notes: []string{
			"star.pred = P + C + (n-1)P; as P grows the serialized root dominates",
		},
	}
	const n = 64
	for _, pv := range []globalfn.Time{1, 2, 4, 8, 16, 32} {
		p := globalfn.Params{C: 8, P: pv}
		starPred := globalfn.StarTime(n, p)
		starRes, err := globalfn.Execute(globalfn.Star(n), p, make([]globalfn.Value, n), globalfn.Sum, false, rc.Opts...)
		if err != nil {
			return nil, err
		}
		tstar, err := p.OptimalTime(n)
		if err != nil {
			return nil, err
		}
		full, err := p.OptimalTree(tstar)
		if err != nil {
			return nil, err
		}
		pruned, err := full.PruneTo(n)
		if err != nil {
			return nil, err
		}
		otRes, err := globalfn.Execute(pruned, p, make([]globalfn.Value, n), globalfn.Sum, false, rc.Opts...)
		if err != nil {
			return nil, err
		}
		winner := "tree"
		if starRes.Finish < otRes.Finish {
			winner = "star"
		} else if starRes.Finish == otRes.Finish {
			winner = "tie"
		}
		t.AddRow(pv, starPred, starRes.Finish, tstar, otRes.Finish, winner)
	}
	return t, nil
}
