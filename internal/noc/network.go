package noc

import "fmt"

// LinkConfig carries the physical parameters of the interconnect from
// Table 1 of the paper.
//
//rnuca:wire
type LinkConfig struct {
	// LinkBytes is the link width: bytes moved per flit (32 in Table 1).
	LinkBytes int `json:"LinkBytes"`
	// LinkLatency is the per-hop wire latency in cycles (1 in Table 1).
	LinkLatency int `json:"LinkLatency"`
	// RouterLatency is the per-hop router pipeline latency in cycles
	// (2 in Table 1).
	RouterLatency int `json:"RouterLatency"`
}

// DefaultLinkConfig returns the Table 1 interconnect parameters.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{LinkBytes: 32, LinkLatency: 1, RouterLatency: 2}
}

// Flits returns the number of flits needed to carry a message of the given
// payload size (minimum 1, for header-only control messages).
func (c LinkConfig) Flits(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + c.LinkBytes - 1) / c.LinkBytes
}

// Message sizes used by the coherence protocols and cache designs, in
// bytes. Control messages (requests, acks, invalidations) fit in one flit;
// data messages carry a 64-byte cache block plus the header.
const (
	CtrlBytes = 8  // request/ack/invalidate: header only
	DataBytes = 72 // 64-byte block + 8-byte header
)

// Network wraps a Topology with traffic accounting and a contention model.
// It is the single point through which the simulator charges on-chip
// communication latency.
//
// Two contention models are available:
//
//   - The default analytic model: the simulator runs in windows; the
//     network accumulates flit-hops and, at each Advance(cycles), computes
//     per-link utilization rho = flitHops / (links x cycles). The next
//     window's traversals are charged an extra queueing delay per hop from
//     the M/D/1 closed form, rho / (2 (1 - rho)) service times.
//
//   - The link-queue model (EnableLinkQueues): every message walks its
//     dimension-order route against per-link FCFS busy-until timestamps.
//     A message arriving at a busy link waits until the link frees; its
//     flits then occupy the link for one cycle each. This resolves
//     contention per message in simulated time rather than on averages,
//     at ~2x the simulation cost; the `nocmodel` ablation compares both.
type Network struct {
	topo Topology
	cfg  LinkConfig

	// Window accumulation.
	flitHops uint64
	messages uint64

	// Totals across the whole run.
	totalFlitHops uint64
	totalMessages uint64
	totalCycles   uint64

	// queuePenalty is the additional per-hop delay (in cycles, may be
	// fractional) charged during the current window, computed from the
	// previous window's utilization.
	queuePenalty float64

	// perLink traffic for hot-spot analysis (lazily allocated).
	perLink map[Link]uint64

	// Hot-path per-link accounting for the flight recorder: flit counts
	// kept in first-traversal order so snapshots iterate deterministically
	// (no map-order dependence). Opt-in; the accounting only reads the
	// route and can never affect charged latency.
	linkAcct  bool
	acctIndex map[Link]int
	acctLinks []Link
	acctFlits []uint64

	// Link-queue model state.
	queueModel bool
	now        float64
	nextFree   map[Link]float64
	waitCycles float64

	// routeBuf is the route buffer every per-message walker refills, so
	// neither the link-queue model nor link accounting allocates a route
	// per message.
	routeBuf []Link
}

// NewNetwork returns a Network over the given topology and link parameters.
func NewNetwork(topo Topology, cfg LinkConfig) *Network {
	if cfg.LinkBytes <= 0 || cfg.LinkLatency < 0 || cfg.RouterLatency < 0 {
		panic(fmt.Sprintf("noc: invalid link config %+v", cfg))
	}
	return &Network{topo: topo, cfg: cfg}
}

// route returns the dimension-order route from src to dst in n.routeBuf.
// The returned slice is only valid until the next call.
func (n *Network) route(src, dst TileID) []Link {
	n.routeBuf = n.topo.AppendRoute(n.routeBuf[:0], src, dst)
	return n.routeBuf
}

// Topology returns the underlying topology.
func (n *Network) Topology() Topology { return n.topo }

// Config returns the link parameters.
func (n *Network) Config() LinkConfig { return n.cfg }

// EnableLinkQueues switches contention resolution to the per-link FCFS
// busy-until model. The simulator must then keep SetNow up to date with
// the requesting core's clock before charging traversals.
func (n *Network) EnableLinkQueues() {
	n.queueModel = true
	n.nextFree = make(map[Link]float64)
}

// QueueModelEnabled reports which contention model is active.
func (n *Network) QueueModelEnabled() bool { return n.queueModel }

// SetNow tells the link-queue model the current simulated time (the
// requesting core's clock). It has no effect under the analytic model.
func (n *Network) SetNow(t float64) { n.now = t }

// WaitCycles returns the cumulative cycles messages spent queued on busy
// links (link-queue model only).
func (n *Network) WaitCycles() float64 { return n.waitCycles }

// Latency returns the end-to-end latency in cycles for a message of the
// given payload from src to dst, including the current contention penalty,
// and records the traffic. src == dst costs zero (same-tile access).
func (n *Network) Latency(src, dst TileID, bytes int) float64 {
	hops := n.topo.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := n.cfg.Flits(bytes)
	n.flitHops += uint64(flits * hops)
	n.messages++
	if n.linkAcct {
		n.recordLinkFlits(src, dst, uint64(flits))
	}
	if n.queueModel {
		return n.traverseQueued(src, dst, flits)
	}
	// Pipeline model: head flit pays per-hop link+router latency; body
	// flits stream behind (cut-through), adding serialization latency of
	// (flits-1) cycles at the destination.
	base := float64(hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + (flits - 1))
	return base + float64(hops)*n.queuePenalty
}

// traverseQueued walks the dimension-order route against per-link FCFS
// occupancy: a message waits for each busy link, then occupies it for one
// cycle per flit.
func (n *Network) traverseQueued(src, dst TileID, flits int) float64 {
	arrival := n.now
	for _, l := range n.route(src, dst) {
		depart := arrival
		if busy := n.nextFree[l]; busy > depart {
			n.waitCycles += busy - depart
			depart = busy
		}
		n.nextFree[l] = depart + float64(flits)
		arrival = depart + float64(n.cfg.LinkLatency+n.cfg.RouterLatency)
	}
	// Serialization of the message body behind the head flit.
	arrival += float64(flits - 1)
	return arrival - n.now
}

// LatencyQuiet is Latency without traffic accounting, used for what-if
// probes (e.g. the Ideal design, which assumes direct uncontended links).
func (n *Network) LatencyQuiet(src, dst TileID, bytes int) float64 {
	hops := n.topo.Hops(src, dst)
	if hops == 0 {
		return 0
	}
	flits := n.cfg.Flits(bytes)
	return float64(hops*(n.cfg.LinkLatency+n.cfg.RouterLatency) + (flits - 1))
}

// RecordRoute accounts traffic on each link of the dimension-order route,
// for hot-spot analysis (used by the topology-comparison tests and the
// mesh-vs-torus ablation).
func (n *Network) RecordRoute(src, dst TileID, bytes int) {
	if n.perLink == nil {
		n.perLink = make(map[Link]uint64)
	}
	flits := uint64(n.cfg.Flits(bytes))
	for _, l := range n.route(src, dst) {
		n.perLink[l] += flits
	}
}

// LinkLoads returns the per-link flit counts recorded by RecordRoute.
func (n *Network) LinkLoads() map[Link]uint64 { return n.perLink }

// String renders a directed link as "from>to" for timeline labels.
func (l Link) String() string { return fmt.Sprintf("%d>%d", l.From, l.To) }

// EnableLinkAccounting turns on per-link flit accounting on the Latency
// hot path, keyed in first-traversal order for deterministic snapshots.
// The accounting walks the dimension-order route but feeds nothing back
// into charged latency, so enabling it cannot perturb timing.
func (n *Network) EnableLinkAccounting() {
	n.linkAcct = true
	if n.acctIndex == nil {
		n.acctIndex = make(map[Link]int)
	}
}

// LinkAccountingEnabled reports whether EnableLinkAccounting was called.
func (n *Network) LinkAccountingEnabled() bool { return n.linkAcct }

func (n *Network) recordLinkFlits(src, dst TileID, flits uint64) {
	for _, l := range n.route(src, dst) {
		i, ok := n.acctIndex[l]
		if !ok {
			i = len(n.acctLinks)
			n.acctIndex[l] = i
			n.acctLinks = append(n.acctLinks, l)
			n.acctFlits = append(n.acctFlits, 0)
		}
		n.acctFlits[i] += flits
	}
}

// LinkTraffic returns the accounted links in first-traversal order and
// their cumulative flit counts. The returned slices are copies.
func (n *Network) LinkTraffic() ([]Link, []uint64) {
	return append([]Link(nil), n.acctLinks...), append([]uint64(nil), n.acctFlits...)
}

// Advance closes the current traffic window after the given number of
// elapsed cycles, recomputes the contention penalty for the next window,
// and resets window accumulators.
func (n *Network) Advance(cycles uint64) {
	n.totalFlitHops += n.flitHops
	n.totalMessages += n.messages
	n.totalCycles += cycles
	rho := n.utilization(n.flitHops, cycles)
	// M/D/1 mean queueing delay in units of the service time (1 cycle
	// per flit-hop): W = rho / (2(1-rho)). Clamp to keep the fixed point
	// stable when a window saturates.
	const rhoMax = 0.95
	if rho > rhoMax {
		rho = rhoMax
	}
	n.queuePenalty = rho / (2 * (1 - rho))
	n.flitHops = 0
	n.messages = 0
}

// utilization estimates mean link utilization for the window.
func (n *Network) utilization(flitHops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	// Directed links: torus has 4 per tile (two per dimension per
	// direction); mesh has fewer at edges. Count exactly.
	links := n.linkCount()
	if links == 0 {
		return 0
	}
	return float64(flitHops) / (float64(links) * float64(cycles))
}

func (n *Network) linkCount() int {
	w, h := n.topo.Dims()
	switch n.topo.(type) {
	case *FoldedTorus2D:
		// Each tile has a +x and -x and +y and -y out-link (rings),
		// except degenerate dimensions of size 1 (no links) and size 2
		// (a single bidirectional pair per adjacency, i.e. 2 directed).
		lx := 2 * w * h // directed x-links
		if w == 1 {
			lx = 0
		} else if w == 2 {
			lx = w * h // one +x and one -x per pair = 2 per 2 tiles
		}
		ly := 2 * w * h
		if h == 1 {
			ly = 0
		} else if h == 2 {
			ly = w * h
		}
		return lx + ly
	case *Mesh2D:
		return 2*((w-1)*h) + 2*(w*(h-1))
	default:
		// Fallback: assume 4 directed links per tile.
		return 4 * w * h
	}
}

// QueuePenalty returns the current per-hop contention penalty in cycles.
func (n *Network) QueuePenalty() float64 { return n.queuePenalty }

// Stats reports run totals.
type Stats struct {
	FlitHops uint64
	Messages uint64
	Cycles   uint64
	MeanRho  float64
}

// TotalStats returns run-wide counters, folding in the still-open window.
func (n *Network) TotalStats() Stats {
	fh := n.totalFlitHops + n.flitHops
	return Stats{
		FlitHops: fh,
		Messages: n.totalMessages + n.messages,
		Cycles:   n.totalCycles,
		MeanRho:  n.utilization(fh, n.totalCycles),
	}
}

// Reset clears all accounting but keeps topology, configuration, and the
// selected contention model.
func (n *Network) Reset() {
	n.flitHops, n.messages = 0, 0
	n.totalFlitHops, n.totalMessages, n.totalCycles = 0, 0, 0
	n.queuePenalty = 0
	n.perLink = nil
	if n.linkAcct {
		n.acctIndex = make(map[Link]int)
		n.acctLinks, n.acctFlits = nil, nil
	}
	n.now, n.waitCycles = 0, 0
	if n.queueModel {
		n.nextFree = make(map[Link]float64)
	}
}
