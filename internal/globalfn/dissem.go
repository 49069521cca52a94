package globalfn

import (
	"errors"
	"fmt"

	"fastnet/internal/anr"
	"fastnet/internal/core"
	"fastnet/internal/graph"
	"fastnet/internal/sim"
)

// This file implements the time-reversal dual of the §5 gather: one-to-all
// dissemination of a value over the same optimal trees. The paper's
// follow-up line of work ([BK92]'s postal model, and later LogP [CKPS93])
// studies exactly this broadcast problem; under the (C, P) model the
// reversed gather schedule is a valid dissemination schedule, so OT(t)
// disseminates to S(t) nodes in time t.
//
// The gather's free multicast is deliberately not used here: a sender emits
// one child message per activation (it re-activates itself with a
// zero-length self route), matching the postal model's one-send-per-P
// discipline and making the dual exact.

// dValue delivers the disseminated value.
type dValue struct {
	Value Value
}

// dTick is the sender's self-reminder that triggers its next child send.
type dTick struct{}

// dproto is the dissemination protocol at one node.
type dproto struct {
	id      core.NodeID
	cfg     *dcfg
	pending []int // children still to serve, largest subtree first
	got     bool
	value   Value
}

type dcfg struct {
	tree *Tree
}

var _ core.Protocol = (*dproto)(nil)

func (p *dproto) Init(core.Env) {}

func (p *dproto) LinkEvent(core.Env, core.Port) {}

func (p *dproto) Deliver(env core.Env, pkt core.Packet) {
	switch m := pkt.Payload.(type) {
	case *dValue:
		if p.got {
			panic(fmt.Sprintf("globalfn: node %d received the value twice", p.id))
		}
		p.got = true
		p.value = m.Value
		// Serve children newest-attached first: the ⊕ construction attaches
		// the largest remaining subtree last, and the largest subtree needs
		// the earliest send.
		ch := p.cfg.tree.Children[p.id]
		p.pending = make([]int, 0, len(ch))
		for i := len(ch) - 1; i >= 0; i-- {
			p.pending = append(p.pending, ch[i])
		}
		p.sendNext(env)
	case *dTick:
		p.sendNext(env)
	}
}

// sendNext emits one child message and, if more remain, a self-reminder —
// one real message per activation.
func (p *dproto) sendNext(env core.Env) {
	if len(p.pending) == 0 {
		return
	}
	child := p.pending[0]
	p.pending = p.pending[1:]
	port, ok := env.PortToward(core.NodeID(child))
	if !ok {
		panic(fmt.Sprintf("globalfn: node %d not adjacent to child %d", p.id, child))
	}
	if err := env.Send(anr.Direct([]anr.ID{port.Local}), &dValue{Value: p.value}); err != nil {
		panic(fmt.Sprintf("globalfn: disseminate: %v", err))
	}
	if len(p.pending) > 0 {
		if err := env.Send(anr.Local(), &dTick{}); err != nil {
			panic(fmt.Sprintf("globalfn: self tick: %v", err))
		}
	}
}

// DissemResult reports one dissemination run.
type DissemResult struct {
	// Finish is the virtual time at which the last node held the value.
	Finish Time
	// Reached counts nodes holding the value at the end (including the
	// root).
	Reached int
	Metrics core.Metrics
}

// ErrNotReached is returned when some node never received the value.
var ErrNotReached = errors.New("globalfn: dissemination did not reach every node")

// Disseminate runs one-to-all dissemination of value from tree node 0 over
// the tree with exact worst-case delays and one message per activation.
// Extra simulator options are appended to the network's own.
func Disseminate(t *Tree, p Params, value Value, opts ...sim.Option) (DissemResult, error) {
	if t.Size == 0 {
		return DissemResult{}, ErrEmptyTree
	}
	if p.C < 0 || p.P < 0 {
		return DissemResult{}, ErrBadParams
	}
	g := graph.New(t.Size)
	for id := 1; id < t.Size; id++ {
		g.MustAddEdge(core.NodeID(id), core.NodeID(t.Parent[id]))
	}
	cfg := &dcfg{tree: t}
	protos := make([]*dproto, t.Size)
	base := []sim.Option{sim.WithDelays(core.Time(p.C), core.Time(p.P)), sim.WithDmax(t.Size)}
	net := sim.New(g, func(id core.NodeID) core.Protocol {
		pr := &dproto{id: id, cfg: cfg}
		protos[id] = pr
		return pr
	}, append(base, opts...)...)
	net.Inject(0, 0, &dValue{Value: value})
	finish, err := net.Run()
	if err != nil {
		return DissemResult{}, err
	}
	reached := 0
	for _, pr := range protos {
		if pr.got {
			if pr.value != value {
				return DissemResult{}, fmt.Errorf("globalfn: node %d got %d, want %d", pr.id, pr.value, value)
			}
			reached++
		}
	}
	if reached != t.Size {
		return DissemResult{}, fmt.Errorf("%w (%d of %d)", ErrNotReached, reached, t.Size)
	}
	return DissemResult{Finish: Time(finish), Reached: reached, Metrics: net.Metrics()}, nil
}
