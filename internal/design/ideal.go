package design

import (
	"rnuca/internal/cache"
	"rnuca/internal/sim"
	"rnuca/internal/trace"
)

// Ideal is the upper bound the paper compares against (§5.4): "a shared
// organization with direct on-chip network links from every core to every
// L2 slice, where each slice is heavily multi-banked to eliminate
// contention". It is therefore the shared design's address-interleaved
// slices — identical contents and miss behavior — with every hit at the
// local-slice latency, no network traversal, and no contention.
type Ideal struct {
	ch *sim.Chassis
	sl slices
	k  uint
}

// NewIdeal builds the ideal design.
func NewIdeal(ch *sim.Chassis) *Ideal {
	return &Ideal{ch: ch, sl: newSlices(ch.Cfg), k: ch.Cfg.InterleaveOffset()}
}

// Name implements sim.Design.
func (d *Ideal) Name() string { return "I" }

func (d *Ideal) home(addr cache.Addr) int {
	return int((uint64(addr) >> d.k) % uint64(d.ch.Cfg.Cores))
}

// Access implements sim.Design.
func (d *Ideal) Access(r trace.Ref) sim.Cost {
	var cost sim.Cost
	ch := d.ch
	addr := r.BlockAddr()
	home := d.home(addr)

	ch.L1Service(r.Core, r)

	slice := d.sl.l2[home]
	if _, hit := slice.Lookup(addr); hit {
		cost.L2 = float64(ch.Cfg.L2HitCycles)
	} else if line, ok := d.sl.victim[home].Take(addr); ok {
		slice.Insert(addr, line.State, line.Class)
		cost.L2 = float64(ch.Cfg.L2HitCycles) + 2
	} else {
		// Off-chip at raw DRAM latency: the ideal network adds nothing.
		cost.OffChip = float64(ch.Cfg.L2HitCycles) + float64(ch.Cfg.MemAccessCycles)
		cost.OffChipMiss = true
		st := cache.Shared
		if r.IsWrite() {
			st = cache.Modified
		}
		if v := slice.Insert(addr, st, r.Class); v.Valid {
			d.sl.victim[home].Put(v.Addr, v.Line)
		}
	}
	if r.IsWrite() {
		if line, ok := slice.Peek(addr); ok {
			line.State = cache.Modified
		}
	}
	return cost
}

// Advance implements sim.Design.
func (d *Ideal) Advance(uint64) {}

// Reset implements sim.Design.
func (d *Ideal) Reset() { d.sl = newSlices(d.ch.Cfg) }

// SliceStats exposes per-slice statistics.
func (d *Ideal) SliceStats(tile int) cache.Stats { return d.sl.l2[tile].Stats() }

// BankAccesses implements sim.BankMeter.
func (d *Ideal) BankAccesses() []uint64 { return d.sl.bankAccesses() }
