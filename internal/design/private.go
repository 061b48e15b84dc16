package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/coherence"
	"rnuca/internal/noc"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Private is the private-L2 baseline (§2.2): each tile's slice is a
// private second-level cache. Misses consult an address-interleaved
// full-map distributed directory (assumed to have zero area overhead, as
// the paper optimistically does) and are serviced in three network
// traversals: requestor -> directory home -> provider -> requestor.
type Private struct {
	ch  *sim.Chassis
	sl  slices
	dir *coherence.Directory // tracks which tiles' private L2s hold blocks
	k   uint
}

// NewPrivate builds the private design on a chassis.
func NewPrivate(ch *sim.Chassis) *Private {
	return &Private{
		ch:  ch,
		sl:  newSlices(ch.Cfg),
		dir: coherence.NewDirectory(ch.Cfg.Cores),
		k:   ch.Cfg.InterleaveOffset(),
	}
}

// Name implements sim.Design.
func (d *Private) Name() string { return "P" }

// dirHome returns the directory home tile for an address.
func (d *Private) dirHome(addr cache.Addr) noc.TileID {
	return noc.TileID((uint64(addr) >> d.k) % uint64(d.ch.Cfg.Cores))
}

// Access implements sim.Design.
func (d *Private) Access(r trace.Ref) sim.Cost {
	cost, _ := d.access(r)
	return cost
}

// access returns the cost and the data source (reused by ASR).
func (d *Private) access(r trace.Ref) (sim.Cost, coherence.Source) {
	var cost sim.Cost
	ch := d.ch
	core := r.Core
	tile := noc.TileID(core)
	addr := r.BlockAddr()

	l1 := ch.L1Service(core, r)

	local := d.sl.l2[core]
	if line, hit := local.Lookup(addr); hit {
		cost.L2 = float64(ch.Cfg.L2HitCycles)
		if r.IsWrite() {
			cost.L2Coh += d.writeUpgrade(core, addr, line)
		}
		return cost, coherence.SourceNone
	}
	if line, ok := d.sl.victim[core].Take(addr); ok {
		local.Insert(addr, line.State, line.Class)
		cost.L2 = float64(ch.Cfg.L2HitCycles) + 2
		if r.IsWrite() {
			if l, hit := local.Peek(addr); hit {
				cost.L2Coh += d.writeUpgrade(core, addr, l)
			}
		}
		return cost, coherence.SourceNone
	}

	// Local miss: local tag probe, then the distributed directory.
	home := d.dirHome(addr)
	lat := float64(ch.Cfg.L2HitCycles) + ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles)
	dist := func(t int) int { return ch.Hops(tile, noc.TileID(t)) }

	var act coherence.Action
	if r.IsWrite() {
		act = d.dir.Write(addr, core, dist)
		for _, t := range act.Invalidated {
			d.sl.l2[t].Invalidate(addr)
			d.sl.victim[t].Take(addr)
		}
		lat += ch.InvalFanout(home, act.Invalidated)
	} else {
		act = d.dir.Read(addr, core, dist)
	}

	src := act.Source
	switch {
	case l1.RemoteOwner >= 0:
		// Dirty copy lives in a remote L1: the directory forwards there;
		// the remote tile probes its L2 slice and then its L1 before
		// replying (two slice-level accesses end to end, which is why the
		// paper's private design pays more for L1-to-L1 transfers).
		owner := noc.TileID(l1.RemoteOwner)
		lat += ch.CtrlLatency(home, owner) + float64(ch.Cfg.L2HitCycles) +
			float64(ch.Cfg.L1HitCycles) + ch.DataLatency(owner, tile)
		cost.L1toL1 = lat
		src = coherence.SourceOwner
	case act.Source == coherence.SourceOwner || act.Source == coherence.SourceSharer:
		provider := noc.TileID(act.Provider)
		lat += ch.CtrlLatency(home, provider) + float64(ch.Cfg.L2HitCycles) +
			ch.DataLatency(provider, tile)
		cost.L2Coh = lat
	case act.Source == coherence.SourceNone:
		// The directory believes we hold the block (e.g. re-read after a
		// silent local eviction raced with our own upgrade): treat as a
		// directory-confirmed memory fetch.
		fallthrough
	default:
		lat += ch.Mem.Access(ch.Net, home, uint64(addr)) + ch.DataLatency(home, tile)
		cost.OffChip = lat
		cost.OffChipMiss = true
		src = coherence.SourceMemory
	}

	d.installLocal(core, addr, r)
	return cost, src
}

// writeUpgrade invalidates other tiles' copies when a locally cached block
// is written, returning the coherence latency.
func (d *Private) writeUpgrade(core int, addr cache.Addr, line *cache.Line) float64 {
	ch := d.ch
	line.State = cache.Modified
	e := d.dir.Lookup(addr)
	if e == nil {
		// Block is local-only (private data never registered remotely).
		d.dir.Write(addr, core, nil)
		return 0
	}
	others := 0
	for _, t := range e.Sharers.Tiles() {
		if t != core {
			others++
		}
	}
	if e.Owner >= 0 && e.Owner != core {
		others++
	}
	if others == 0 {
		d.dir.Write(addr, core, nil)
		return 0
	}
	tile := noc.TileID(core)
	home := d.dirHome(addr)
	act := d.dir.Write(addr, core, func(t int) int { return ch.Hops(tile, noc.TileID(t)) })
	for _, t := range act.Invalidated {
		d.sl.l2[t].Invalidate(addr)
		d.sl.victim[t].Take(addr)
	}
	return ch.CtrlLatency(tile, home) + float64(ch.Cfg.DirCycles) + ch.InvalFanout(home, act.Invalidated)
}

// installLocal inserts the block into the requestor's private slice and
// keeps directory state in sync with the eviction it may cause.
func (d *Private) installLocal(core int, addr cache.Addr, r trace.Ref) {
	st := cache.Shared
	if r.IsWrite() {
		st = cache.Modified
	}
	v := d.sl.l2[core].Insert(addr, st, r.Class)
	if v.Valid {
		// The victim cache keeps the block on-tile; only a displacement
		// out of the victim cache truly leaves the tile, so directory
		// state follows the displaced block.
		if dAddr, dLine, displaced := d.sl.victim[core].Put(v.Addr, v.Line); displaced {
			d.dir.Evict(dAddr, core, dLine.State.Dirty())
		}
	}
}

// dropLocal removes a block from a tile's slice and directory (used by ASR
// when it declines to allocate).
func (d *Private) dropLocal(core int, addr cache.Addr) {
	if _, ok := d.sl.l2[core].Invalidate(addr); ok {
		d.dir.Evict(addr, core, false)
	}
}

// Advance implements sim.Design.
func (d *Private) Advance(uint64) {}

// Reset implements sim.Design.
func (d *Private) Reset() {
	d.sl = newSlices(d.ch.Cfg)
	d.dir.Reset()
}

// Directory exposes the L2 directory for invariant audits in tests.
func (d *Private) Directory() *coherence.Directory { return d.dir }

// SliceOccupancy exposes per-slice line counts.
func (d *Private) SliceOccupancy(tile noc.TileID) int { return d.sl.l2[tile].Lines() }

// SliceStats exposes per-slice statistics.
func (d *Private) SliceStats(tile noc.TileID) cache.Stats { return d.sl.l2[tile].Stats() }

// BankAccesses implements sim.BankMeter. ASR and PrivateBroadcast
// inherit it by embedding.
func (d *Private) BankAccesses() []uint64 { return d.sl.bankAccesses() }
