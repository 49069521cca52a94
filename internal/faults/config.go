package faults

import (
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/topology"
)

// Config parameterizes a soak run. The zero value is not useful; set at
// least Epochs and one fault source. Every random decision — schedules,
// call placement, election starters — derives from Seed, so a run is
// reproducible bit for bit on the discrete-event runtime. Each field a flag
// sets is one row of the fields table, which holds its flag, its default
// and its valid range.
type Config struct {
	Seed    int64
	Epochs  int
	Runtime string        // "des" or "gosim"
	Mode    topology.Mode // topology maintenance protocol: branching or flooding

	Flaps          int // link flaps per epoch
	FlapLen        int // steps a flapped link stays down
	PartitionEvery int // epochs between correlated cut faults (0 = off)
	PartitionHeal  int // epochs until a cut heals
	Crashes        int // node crashes per epoch
	Downtime       int // epochs a crashed node stays down
	Adversary      bool
	LeaderCrash    float64 // per-epoch probability of crashing the leader

	// Lossy-link profile (core.MsgFaults probabilities). When any of these
	// is nonzero the soak runs its message-fault phases: convergence (I1),
	// the reliable-delivery ledger (I6) and the down-direction link probes
	// (I4) happen on the lossy fabric; exact-state checks (call state,
	// up-direction probes) run after healing it, since arbitrary loss can
	// legitimately defeat the liveness they assert.
	Loss      float64 // per-traversal drop probability
	Dup       float64 // per-traversal duplication probability
	Corrupt   float64 // per-traversal corruption probability
	Jitter    float64 // per-traversal extra-delay probability
	JitterMax int     // max extra delay in time units
	// Reorder is the per-traversal FIFO-violation probability. Besides
	// joining the fabric profile, a nonzero value arms invariant I7: each
	// epoch the largest live component re-runs the election under random
	// delays plus a reorder-only profile, and must still elect a single
	// leader owning the whole component.
	Reorder       float64
	ReorderWindow int // max hold-back delay in time units

	// Gray-failure profile. Slow joins the fabric as the per-traversal
	// slowdown probability (core.MsgFaults.Slowdown); Stall injects seeded
	// NCU-stall windows into the fabric each epoch. A nonzero value in
	// either arms invariant I8: an adaptive (phi-accrual) failure detector
	// watching a live-but-slowed/stalled leader must raise zero suspicions,
	// and the election must still complete within the I7 bound with
	// slowdown in the profile.
	Slow       float64 // per-traversal gray-link slowdown probability
	SlowFactor float64 // hardware-delay multiplier of a slowed hop
	SlowMax    int     // max additive inflation in time units
	Stall      int     // NCU stalls injected per epoch
	StallTicks int     // stall window length

	// BurstEvery > 0 scales the profile by BurstScale every BurstEvery-th
	// epoch (loss comes in storms, not as a stationary rate).
	BurstEvery int
	BurstScale float64

	// Reliable is the number of end-to-end reliable messages sent per epoch
	// between random live pairs while the fabric is lossy; invariant I6
	// checks the delivery ledger (exactly once each, nothing phantom).
	Reliable int

	Calls      int  // calls set up (and failure-checked) per epoch
	NoElection bool // skip the per-epoch re-election invariant

	// Open-loop load plane (DES runtime only). Rate > 0 switches the soak
	// from the churn loop into its open-loop mode: each epoch runs one
	// load-engine sweep of Calls arrivals at Rate*(epoch+1) calls per tick
	// (a rising-pressure rate sweep), checking invariant I9 — the call
	// ledger settles every generated call exactly once, and nothing is
	// blocked or dropped unless an overload source (a capacity limit or a
	// fault profile) is declared.
	Rate    float64 // base arrival rate in calls per tick (0 = classic soak)
	Holding int     // mean call-holding time in ticks
	ZipfS   float64 // endpoint-popularity skew exponent (0 = uniform)
	NCUCap  int     // finite NCU service queue (Capacity.NCUQueue; 0 = unlimited)
	LinkCap float64 // per-link token refill rate (Capacity.LinkRate; 0 = unlimited)

	// Shards > 0 runs the DES fabric on the sharded space-parallel scheduler
	// with that many event cores (see sim.WithShards). Because shard mode
	// needs a nonzero lookahead, the fabric's hardware delay becomes 1 instead
	// of the classic soak's 0 — a sharded soak is therefore a different (but
	// per-shard-count deterministic) schedule than the Shards == 0 soak, not a
	// reparallelization of it. DES runtime only; ignored under gosim.
	Shards int

	MaxRounds int           // convergence-round cap (0 = n+8)
	Timeout   time.Duration // per-quiescence bound, goroutine runtime only
	Verbose   io.Writer     // optional per-epoch progress lines
}

// field is one row of the config table: a Config field and the fastnet soak
// flag that sets it. The flag set, Repro, the defaults pass and Validate are
// all generated from the rows, so adding a fault dimension is one row plus
// the code that uses the field.
type field struct {
	flag  string
	field string // Config field name; its type is int, int64, float64, bool, string, time.Duration or topology.Mode
	cli   any    // the flag's default; nil means the zero value
	unset any    // what a zero field means, substituted at Soak entry; nil: zero is a value
	in    *span  // valid range of a numeric field after defaults; nil: any value
	with  string // Config field of the dimension this row tunes; Repro names the row whenever that field is set
	oneOf []any  // valid values of a string or mode field
	usage string
}

// span is a closed range of valid numeric values.
type span struct{ lo, hi float64 }

func (s *span) String() string {
	if math.IsInf(s.hi, 1) {
		return fmt.Sprintf(">= %g", s.lo)
	}
	return fmt.Sprintf("a value in [%g, %g]", s.lo, s.hi)
}

var (
	prob     = &span{0, 1}
	nonNeg   = &span{0, math.Inf(1)}
	atLeast1 = &span{1, math.Inf(1)}
)

// fields is the config table, in the order Repro prints the flags.
var fields = []field{
	{flag: "runtime", field: "Runtime", cli: "des", unset: "des", oneOf: []any{"des", "gosim"}, usage: "runtime: des|gosim"},
	{flag: "seed", field: "Seed", cli: int64(1), usage: "seed for schedules, calls and elections"},
	{flag: "epochs", field: "Epochs", cli: 50, in: atLeast1, usage: "churn epochs to run"},
	{flag: "mode", field: "Mode", cli: topology.ModeBranching, unset: topology.ModeBranching,
		oneOf: []any{topology.ModeBranching, topology.ModeFlood}, usage: "maintenance protocol: branching-paths|flooding"},
	{flag: "flaps", field: "Flaps", cli: 2, in: nonNeg, usage: "link flaps per epoch"},
	{flag: "flaplen", field: "FlapLen", cli: 1, unset: 1, in: atLeast1, usage: "steps a flapped link stays down"},
	{flag: "partition-every", field: "PartitionEvery", cli: 5, in: nonNeg, usage: "epochs between correlated cuts (0 = off)"},
	{flag: "partition-heal", field: "PartitionHeal", cli: 1, unset: 1, in: atLeast1, usage: "epochs until a cut heals"},
	{flag: "crashes", field: "Crashes", cli: 1, in: nonNeg, usage: "node crashes per epoch"},
	{flag: "downtime", field: "Downtime", cli: 1, unset: 1, in: atLeast1, usage: "epochs a crashed node stays down"},
	{flag: "calls", field: "Calls", cli: 2, in: nonNeg, usage: "calls set up and failure-checked per epoch"},
	{flag: "leader-crash", field: "LeaderCrash", cli: 0.25, in: prob, usage: "per-epoch probability of crashing the leader"},
	{flag: "loss", field: "Loss", in: prob, usage: "per-traversal drop probability (lossy-link model)"},
	{flag: "dup", field: "Dup", in: prob, usage: "per-traversal duplication probability"},
	{flag: "corrupt", field: "Corrupt", in: prob, usage: "per-traversal corruption probability"},
	{flag: "jitter", field: "Jitter", in: prob, usage: "per-traversal extra-delay probability"},
	{flag: "jittermax", field: "JitterMax", unset: 4, with: "Jitter", in: atLeast1, usage: "max extra per-hop delay"},
	{flag: "reliable", field: "Reliable", in: nonNeg, usage: "reliable ledger messages per epoch (invariant I6)"},
	{flag: "reorder", field: "Reorder", in: prob, usage: "per-traversal reorder probability (arms invariant I7)"},
	{flag: "reorder-window", field: "ReorderWindow", unset: 8, with: "Reorder", in: atLeast1, usage: "max reorder displacement in ticks"},
	{flag: "slow", field: "Slow", in: prob, usage: "per-traversal gray-slowdown probability (arms invariant I8)"},
	{flag: "slow-factor", field: "SlowFactor", unset: 4.0, with: "Slow", in: atLeast1, usage: "slowdown multiplier on the per-hop delay"},
	{flag: "slow-max", field: "SlowMax", unset: 8, with: "Slow", in: atLeast1, usage: "max additive slowdown in ticks"},
	{flag: "burst-every", field: "BurstEvery", in: nonNeg, usage: "scale the fault profile up every k-th epoch (0 = off)"},
	{flag: "burst-scale", field: "BurstScale", unset: 2.0, with: "BurstEvery", in: nonNeg, usage: "burst multiplier"},
	{flag: "stall", field: "Stall", in: nonNeg, usage: "NCU-stall windows per epoch (arms invariant I8)"},
	{flag: "stall-ticks", field: "StallTicks", unset: 8, with: "Stall", in: atLeast1, usage: "stall window length in ticks"},
	{flag: "rate", field: "Rate", in: nonNeg,
		usage: "open-loop arrival rate in calls/tick (0 = classic churn soak; arms invariant I9)"},
	{flag: "holding", field: "Holding", unset: 256, with: "Rate", in: atLeast1, usage: "open-loop mean call-holding time in ticks"},
	{flag: "zipf", field: "ZipfS", in: nonNeg, usage: "open-loop endpoint-popularity skew exponent (0 = uniform)"},
	{flag: "ncu-cap", field: "NCUCap", in: nonNeg, usage: "open-loop finite NCU service queue (0 = unlimited)"},
	{flag: "link-cap", field: "LinkCap", in: nonNeg, usage: "open-loop per-link token refill rate (0 = unlimited)"},
	{flag: "max-rounds", field: "MaxRounds", in: nonNeg, usage: "convergence-round cap (default n+8)"},
	{flag: "shards", field: "Shards", in: nonNeg,
		usage: "event cores for the sharded DES scheduler (0 = classic serial; implies unit hardware delay)"},
	{flag: "adversary", field: "Adversary", usage: "fail the link the last delivery was observed on"},
	{flag: "no-election", field: "NoElection", usage: "skip the per-epoch re-election invariant"},
	{flag: "timeout", field: "Timeout", cli: 30 * time.Second, unset: 30 * time.Second, in: nonNeg,
		usage: "per-quiescence bound (gosim runtime)"},
}

func (f field) value(c *Config) reflect.Value { return reflect.ValueOf(c).Elem().FieldByName(f.field) }

// RegisterFlags defines the fastnet soak flag of every table row on fs,
// bound to cfg's field, and sets each of those fields to its flag default.
func (cfg *Config) RegisterFlags(fs *flag.FlagSet) {
	for _, f := range fields {
		v := f.value(cfg)
		v.SetZero()
		if f.cli != nil {
			v.Set(reflect.ValueOf(f.cli))
		}
		usage := f.usage
		if f.cli == nil && f.unset != nil {
			usage += fmt.Sprintf(" (default %v)", f.unset)
		}
		switch p := v.Addr().Interface().(type) {
		case *int:
			fs.IntVar(p, f.flag, *p, usage)
		case *int64:
			fs.Int64Var(p, f.flag, *p, usage)
		case *float64:
			fs.Float64Var(p, f.flag, *p, usage)
		case *bool:
			fs.BoolVar(p, f.flag, *p, usage)
		case *string:
			fs.StringVar(p, f.flag, *p, usage)
		case *time.Duration:
			fs.DurationVar(p, f.flag, *p, usage)
		case *topology.Mode:
			fs.Var((*modeFlag)(p), f.flag, usage)
		default:
			panic(fmt.Sprintf("faults: config field -%s has unsupported type %T", f.flag, p))
		}
	}
}

// modeFlag parses the maintenance protocols the soak accepts; dfs and layers
// are excluded (dfs is the paper's broken example).
type modeFlag topology.Mode

func (m *modeFlag) String() string { return topology.Mode(*m).String() }

func (m *modeFlag) Set(s string) error {
	switch s {
	case "branching-paths", "branching", "broadcast":
		*m = modeFlag(topology.ModeBranching)
	case "flooding", "flood":
		*m = modeFlag(topology.ModeFlood)
	default:
		return fmt.Errorf("unknown mode %q (want branching-paths or flooding)", s)
	}
	return nil
}

// withDefaults substitutes each row's unset meaning for a zero field.
func (cfg Config) withDefaults() Config {
	for _, f := range fields {
		if v := f.value(&cfg); f.unset != nil && v.IsZero() {
			v.Set(reflect.ValueOf(f.unset))
		}
	}
	return cfg
}

// check reports whether f's field of c lies in its valid range, and the range.
func (f field) check(c *Config) (ok bool, want string) {
	v := f.value(c)
	switch {
	case f.oneOf != nil:
		return slices.Contains(f.oneOf, v.Interface()), fmt.Sprintf("one of %v", f.oneOf)
	case f.in != nil:
		var x float64
		if v.CanInt() {
			x = float64(v.Int())
		} else {
			x = v.Float()
		}
		return f.in.lo <= x && x <= f.in.hi, f.in.String()
	}
	return true, ""
}

// ConfigError reports a soak config the driver refuses to run, naming the
// fastnet soak flag that sets the offending value.
type ConfigError struct {
	Flag  string // flag name, without the dash
	Value string
	Want  string // the valid range
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("faults: invalid -%s %s: want %s", e.Flag, e.Value, e.Want)
}

// Validate checks every field, after the defaults pass, against its valid
// range, plus the open-loop mode's needs; it returns a *ConfigError naming
// the first offending field. Soak runs it before anything else.
func (cfg Config) Validate() error {
	c := cfg.withDefaults()
	for _, f := range fields {
		if ok, want := f.check(&c); !ok {
			return &ConfigError{Flag: f.flag, Value: fmt.Sprint(f.value(&c).Interface()), Want: want}
		}
	}
	if c.Rate > 0 && c.Runtime != "des" {
		return &ConfigError{Flag: "runtime", Value: c.Runtime, Want: "des when -rate > 0 (the open-loop mode runs on the discrete-event runtime)"}
	}
	if c.Rate > 0 && c.Calls == 0 {
		return &ConfigError{Flag: "calls", Value: "0", Want: ">= 1 when -rate > 0"}
	}
	return nil
}

// Repro renders the fastnet soak invocation that reproduces this config on
// the graph that -topo topo -n n -gnp-p gnpP builds: it names every field
// whose value, after the defaults pass, differs from its flag default, and
// every knob of an armed dimension with its default resolved, so the line
// replays the run literally. The soak driver prints it when an invariant fails.
func (cfg Config) Repro(topo string, n int, gnpP float64) string {
	var def Config
	def.RegisterFlags(flag.NewFlagSet("defaults", flag.ContinueOnError))
	got, def := cfg.withDefaults(), def.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "fastnet soak -topo %s -n %d", topo, n)
	if gnpP != 0 {
		fmt.Fprintf(&b, " -gnp-p %g", gnpP)
	}
	for _, f := range fields {
		v := f.value(&got).Interface()
		armed := f.with != "" && !reflect.ValueOf(got).FieldByName(f.with).IsZero()
		switch {
		case v == f.value(&def).Interface() && !armed:
		case v == true:
			fmt.Fprintf(&b, " -%s", f.flag)
		default:
			fmt.Fprintf(&b, " -%s %v", f.flag, v)
		}
	}
	return b.String()
}

// profile returns epoch's lossy-link profile: the configured rates, scaled
// by BurstScale every BurstEvery-th epoch. The gray knobs join only when
// Slow is set, so on their own they change nothing. cfg must have been
// through the defaults pass.
func (cfg Config) profile(epoch int) core.MsgFaults {
	f := core.MsgFaults{
		Drop: cfg.Loss, Dup: cfg.Dup, Corrupt: cfg.Corrupt,
		Jitter: cfg.Jitter, JitterMax: core.Time(cfg.JitterMax),
		Reorder: cfg.Reorder, ReorderWindow: core.Time(cfg.ReorderWindow),
	}
	if cfg.Slow > 0 {
		f.Slowdown, f.SlowFactor, f.SlowMax = cfg.Slow, cfg.SlowFactor, core.Time(cfg.SlowMax)
	}
	if cfg.BurstEvery > 0 && epoch%cfg.BurstEvery == cfg.BurstEvery-1 {
		return f.Scale(cfg.BurstScale)
	}
	return f
}
