package shard

import (
	"math"
	"sync"

	"stochsynth/internal/chem"
	"stochsynth/internal/mc"
)

// Every shard of a network sweep carries the same NetworkSpec, and a
// process needs it validated, hashed and compiled at several points: the
// coordinator's Encode, the worker's DecodeSpec, Run. The network cache
// does that work once per process: it maps the *full content* of a
// NetworkSpec (never its truncated SweepID hash) plus the sweep-kind
// flags to the parsed, validated network, its sweep id, and each grid
// value's compiled trial body. Entries are immutable once built and
// shared read-only, exactly as an engine's *chem.Compiled is already
// shared across mc workers; chem.Network carries no lazy state.

const (
	// networkCacheEntries bounds the validated networks kept per process;
	// the least recently used one is evicted past it.
	networkCacheEntries = 8
	// networkCacheCells bounds the compiled grid values kept per network
	// by their total kernel size, counted in cells: one per channel plus
	// one per dependency-graph entry (a 4-byte list slot plus a 32-byte
	// refresh record). Values past it are compiled on every use (correct,
	// just uncached), so a large grid of a large network cannot pin
	// unbounded memory.
	networkCacheCells = 1 << 16
)

// networkKey is a NetworkSpec by value, optional fields included, plus
// the sweep-kind flags its validation depends on. Copying a spec into a
// key is what makes the cache immune to callers mutating their spec in
// place after a call.
type networkKey struct {
	crn           string
	engine        string
	maxSteps      int64
	obs           ObservableSpec
	param         ParamSpec
	hasParam      bool
	hist          mc.HistConfig
	hasHist       bool
	numeric, dist bool
}

func keyOf(ns *NetworkSpec, numeric, dist bool) networkKey {
	k := networkKey{
		crn: ns.CRN, engine: ns.Engine, maxSteps: ns.MaxSteps, obs: ns.Observable,
		numeric: numeric, dist: dist,
	}
	if ns.Param != nil {
		k.param, k.hasParam = *ns.Param, true
	}
	if ns.Hist != nil {
		k.hist, k.hasHist = *ns.Hist, true
	}
	return k
}

// spec rebuilds a private NetworkSpec from the key, aliasing nothing the
// caller owns.
func (k *networkKey) spec() *NetworkSpec {
	ns := &NetworkSpec{CRN: k.crn, Engine: k.engine, MaxSteps: k.maxSteps, Observable: k.obs}
	if k.hasParam {
		p := k.param
		ns.Param = &p
	}
	if k.hasHist {
		h := k.hist
		ns.Hist = &h
	}
	return ns
}

// compiledNetwork is one cache entry: a validated spec, its parsed
// network and content id, and the compiled trial body of each grid value
// seen so far (keyed by math.Float64bits, so -0 and +0 stay distinct).
type compiledNetwork struct {
	key networkKey
	ns  *NetworkSpec
	net *chem.Network
	id  string

	mu     sync.Mutex
	points map[uint64]*networkObservable
	cells  int // kernel cells held by points
}

// kernelCells is the size of one compiled grid value in cache cells.
func kernelCells(no *networkObservable) int {
	return no.comp.NumChannels() + len(no.comp.DepList)
}

// observable returns the compiled trial body for one grid value. Two
// callers racing on a new value may both compile it; the first stored
// one wins, so every later caller shares it.
func (cn *compiledNetwork) observable(param float64) (*networkObservable, error) {
	bits := math.Float64bits(param)
	if cn.ns.Param == nil {
		bits = 0 // grid values are labels only: one model serves them all
	}
	cn.mu.Lock()
	no := cn.points[bits]
	cn.mu.Unlock()
	if no != nil {
		return no, nil
	}
	no, err := compileObservable(cn.net, cn.ns, param)
	if err != nil {
		return nil, err
	}
	size := kernelCells(no)
	cn.mu.Lock()
	if prev := cn.points[bits]; prev != nil {
		no = prev
	} else if cn.cells+size <= networkCacheCells {
		cn.points[bits] = no
		cn.cells += size
	}
	cn.mu.Unlock()
	return no, nil
}

// networkCache is a small most-recently-used-first list of entries. At
// eight entries a linear scan beats hashing a network text that may be
// a megabyte long.
type networkCache struct {
	mu      sync.Mutex
	entries []*compiledNetwork
}

var networks networkCache

// get returns the cache entry for ns under the given sweep kind,
// validating and compiling on a miss. Invalid specs are never cached, so
// each call re-validates them and returns the same error.
func (c *networkCache) get(ns *NetworkSpec, numeric, dist bool) (*compiledNetwork, error) {
	k := keyOf(ns, numeric, dist)
	c.mu.Lock()
	cn := c.find(&k)
	c.mu.Unlock()
	if cn != nil {
		return cn, nil
	}
	// Validate and hash outside the lock: a megabyte network must not
	// stall every other shard's lookup.
	snap := k.spec()
	net, err := snap.validate(numeric, dist)
	if err != nil {
		return nil, err
	}
	cn = &compiledNetwork{
		key: k, ns: snap, net: net, id: sweepID(net, snap),
		points: make(map[uint64]*networkObservable),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.find(&k); e != nil {
		return e, nil // a concurrent miss got there first
	}
	if len(c.entries) < networkCacheEntries {
		c.entries = append(c.entries, nil)
	}
	copy(c.entries[1:], c.entries)
	c.entries[0] = cn
	return cn, nil
}

// find returns the entry for k, moving it to the front, or nil. Callers
// hold c.mu.
func (c *networkCache) find(k *networkKey) *compiledNetwork {
	for i, e := range c.entries {
		if e.key == *k {
			copy(c.entries[1:i+1], c.entries[:i])
			c.entries[0] = e
			return e
		}
	}
	return nil
}
