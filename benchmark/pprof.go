package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the buckets a CPU profile is split into, with the metric each
// bucket's share is reported as. Shares over all layers sum to 1.
var layers = []struct{ name, metric string }{
	{"sim.spine", "sim.spine_share"},
	{"sim.hop", "sim.hop_share"},
	{"sim.shard", "sim.shard_share"},
	{"topology.handler", "topology.handler_share"},
	{"topology.routing", "topology.routing_share"},
	{"load.plane", "load.plane_share"},
	{"load.pairtable", "load.pairtable_share"},
	{"election", "election.share"},
	{"reliable", "reliable.share"},
	{"faults", "faults.share"},
	{"graph", "graph.share"},
	{"runtime.gc", "runtime.gc_share"},
	{"runtime.malloc", "runtime.malloc_share"},
	{"other", "other_share"},
}

// pkgLayer says where a module package's frames are charged.
type pkgLayer struct {
	// layer is the package's default layer.
	layer string
	// library packages are called from several layers (ANR headers, ports,
	// graph algorithms): their frames are charged to the nearest calling
	// module frame's layer, and to layer only when no such frame exists.
	library bool
	// funcs overrides layer for named functions or types, keyed by
	// "Type.method", "Type" or "func" (receivers without the pointer star).
	funcs map[string]string
}

// modulePrefix is the import path prefix of the system under test.
const modulePrefix = "fastnet/internal/"

// layerTable maps every package under internal/ to its layer. The package
// test checks that it covers every package in the tree, so a new package
// cannot fall silently into other_share.
var layerTable = map[string]pkgLayer{
	"anr":  {layer: "sim.hop", library: true},
	"core": {layer: "sim.spine", library: true},
	// graph algorithms run for graph generation and partitioning in
	// set-up, and inside routing and pair-table builds when called there.
	"graph":       {layer: "graph", library: true},
	"calls":       {layer: "topology.handler"},
	"causal":      {layer: "topology.handler"},
	"globalfn":    {layer: "topology.handler"},
	"pif":         {layer: "topology.handler"},
	"paths":       {layer: "topology.routing"},
	"election":    {layer: "election"},
	"reliable":    {layer: "reliable"},
	"reseq":       {layer: "reliable"},
	"faults":      {layer: "faults"},
	"gosim":       {layer: "sim.spine"},
	"trace":       {layer: "sim.spine"},
	"traffic":     {layer: "load.plane"},
	"experiments": {layer: "other"}, // experiment tables: no workload runs them
	"integration": {layer: "other"}, // tests only
	"runner":      {layer: "other"}, // worker pools: no workload runs them
	"load": {layer: "load.plane", funcs: map[string]string{
		"NewPairTable": "load.pairtable",
		"newAlias":     "load.pairtable",
	}},
	"sim": {layer: "sim.spine", funcs: map[string]string{
		// hardware hop execution: routing a packet through switches
		"Network.route":         "sim.hop",
		"Network.stepHop":       "sim.hop",
		"Network.pushHop":       "sim.hop",
		"Network.newBatch":      "sim.hop",
		"Network.freeBatchSlab": "sim.hop",
		"Network.hwDelayOnce":   "sim.hop",
		"Network.hwSrc":         "sim.hop",
		"Network.faultSrc":      "sim.hop",
		"Network.dupRev":        "sim.hop",
		"hopBatch":              "sim.hop",
		"env.Send":              "sim.hop",
		"env.Multicast":         "sim.hop",
		// the shard barrier and cross-shard delivery
		"Network.buildShards":   "sim.shard",
		"Network.ownerOf":       "sim.shard",
		"Network.ownsNode":      "sim.shard",
		"Network.nextEventTime": "sim.shard",
		"Network.insertForeign": "sim.shard",
		"shardGroup":            "sim.shard",
		"traceBuf":              "sim.shard",
		"flushShardTrace":       "sim.shard",
	}},
	"topology": {layer: "topology.handler", funcs: map[string]string{
		"Broadcast.cachedRoutes":  "topology.routing",
		"Broadcast.computeRoutes": "topology.routing",
		"Broadcast.routeSpecs":    "topology.routing",
		"DB.Route":                "topology.routing",
		"DB.routeMinHop":          "topology.routing",
		"DB.headerFor":            "topology.routing",
		"DB.maxLoadToward":        "topology.routing",
		"DB.LoadOf":               "topology.routing",
		"DB.RouteMinLoad":         "topology.routing",
		"DB.routeMinLoad":         "topology.routing",
		"DB.ensureCaches":         "topology.routing",
		"DB.BFSTree":              "topology.routing",
		"DB.minLoadTree":          "topology.routing",
		"DB.RouterFrom":           "topology.routing",
		"DB.RouterFromPenalized":  "topology.routing",
		"DB.View":                 "topology.routing",
		"DB.LinkID":               "topology.routing",
		"DB.findLink":             "topology.routing",
		"eulerWalk":               "topology.routing",
		"layeredWalk":             "topology.routing",
		"walkHeader":              "topology.routing",
		"DB.KnowsNodes":           "faults", // the soak's convergence check
		"DB.KnowsExactly":         "faults",
		"WalkBroadcast.broadcast": "topology.routing",
	}},
}

// frameLayer classifies one module frame: its layer, whether it is a
// library frame, and whether it belongs to the module at all.
func frameLayer(fn string) (layer string, library, ok bool) {
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false, false
	}
	rest := fn[len(modulePrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", false, false
	}
	pkg, sym := rest[:dot], rest[dot+1:]
	if i := strings.IndexByte(pkg, '/'); i >= 0 {
		pkg = pkg[:i] // a nested package is charged like its parent
	}
	pl, found := layerTable[pkg]
	if !found {
		return "other", false, true
	}
	sym = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(sym)
	for key, l := range pl.funcs {
		if sym == key || strings.HasPrefix(sym, key+".") {
			return l, false, true
		}
	}
	return pl.layer, pl.library, true
}

// runtimeClass classifies a runtime frame as garbage collection ("gc"),
// allocation ("malloc") or neither ("").
func runtimeClass(fn string) string {
	sym, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return ""
	}
	sym = strings.TrimPrefix(sym, "(*")
	for _, p := range []string{"gc", "mark", "scan", "grey", "wbBuf", "bgsweep", "bgscavenge", "sweep", "mspan).sweep", "findObject"} {
		if strings.HasPrefix(sym, p) {
			return "gc"
		}
	}
	for _, p := range []string{"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "mcache)", "mcentral)", "mheap).alloc", "nextFreeFast", "rawstring", "rawbyteslice"} {
		if strings.HasPrefix(sym, p) {
			return "malloc"
		}
	}
	return ""
}

// classify charges one sampled stack (leaf first) to a layer. Garbage
// collection and allocation are recognised in the runtime frames nearest
// the leaf; otherwise the sample goes to the first module frame's layer,
// walking through standard-library and runtime helpers (memmove, map
// access, sorting) and through library packages to their caller. The
// benchmark's own frames (package main) end the walk.
func classify(stack []string) string {
	i := 0
	for ; i < len(stack) && isRuntime(stack[i]); i++ {
	}
	malloc := false
	for _, fn := range stack[:i] {
		switch runtimeClass(fn) {
		case "gc":
			return "runtime.gc"
		case "malloc":
			malloc = true
		}
	}
	if malloc {
		return "runtime.malloc"
	}
	fallback := ""
	for _, fn := range stack[i:] {
		if strings.HasPrefix(fn, "main.") {
			break
		}
		layer, library, ok := frameLayer(fn)
		if !ok {
			continue
		}
		if !library {
			return layer
		}
		if fallback == "" {
			fallback = layer
		}
	}
	if fallback != "" {
		return fallback
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/")
}

// tally accumulates CPU profiles: samples per layer, and per module
// function both flat (the module frame nearest the leaf) and cumulative
// (anywhere on the stack).
type tally struct {
	layers, flat, cum map[string]int64
	total             int64
}

func newTally() *tally {
	return &tally{layers: make(map[string]int64), flat: make(map[string]int64), cum: make(map[string]int64)}
}

// add buckets one gzipped pprof CPU profile, as runtime/pprof writes it,
// weighting each sample by its first value (the sample count).
func (t *tally) add(gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	var stack []string
	seen := make(map[string]bool)
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcName(fid))
			}
		}
		t.layers[classify(stack)] += s.count
		t.total += s.count
		clear(seen)
		for _, fn := range stack {
			if !strings.HasPrefix(fn, modulePrefix) || seen[fn] {
				continue
			}
			if len(seen) == 0 {
				t.flat[fn] += s.count
			}
			seen[fn] = true
			t.cum[fn] += s.count
		}
	}
	return nil
}

// top renders the k largest entries of m as shares of all samples.
func (t *tally) top(m map[string]int64, k int) string {
	fns := make([]string, 0, len(m))
	for fn := range m {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		if m[fns[i]] != m[fns[j]] {
			return m[fns[i]] > m[fns[j]]
		}
		return fns[i] < fns[j]
	})
	var b strings.Builder
	for i, fn := range fns {
		if i == k {
			break
		}
		fmt.Fprintf(&b, "\n  %5.1f%%  %s", 100*float64(m[fn])/float64(t.total), strings.TrimPrefix(fn, modulePrefix))
	}
	return b.String()
}

// profile is the part of a pprof profile the bucketing needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcs    map[uint64]int64    // function id -> name string index
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

// parseProfile decodes the gzipped profile.proto message: samples (field
// 2), locations (4), functions (5) and the string table (6).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s profSample
			counted := false
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2: // values: only the first (the sample count) is kept
					if vals := appendVarints(nil, w, v, b); len(vals) > 0 && !counted {
						s.count, counted = int64(vals[0]), true
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fids []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: function_id is field 1
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fids
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// appendVarints appends a repeated integer field that may be packed (wire
// type 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls f for every field of a protobuf message: varints pass
// their value in v, length-delimited fields their bytes in b.
func eachField(msg []byte, f func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
