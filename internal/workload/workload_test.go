package workload

import (
	"testing"

	"rnuca/internal/cache"
	"rnuca/internal/trace"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range append(Primary(), Extended()...) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidationCatchesErrors(t *testing.T) {
	s := OLTPDB2()
	s.FracInstr = 0.9
	if s.Validate() == nil {
		t.Fatal("mix not summing to 1 accepted")
	}
	s = OLTPDB2()
	s.BusyPerRef = 0
	if s.Validate() == nil {
		t.Fatal("zero busy accepted")
	}
	s = OLTPDB2()
	s.OffChipMLP = 0.5
	if s.Validate() == nil {
		t.Fatal("MLP < 1 accepted")
	}
	// Footprints are bounded by their address regions, so none aliases
	// into the next class's region.
	for _, set := range []func(*Spec){
		func(s *Spec) { s.InstrFootprint = sharedBase - instrBase + 1 },
		func(s *Spec) { s.SharedFootprint = sharedROBase - sharedBase + 1 },
		func(s *Spec) { s.SharedROFootprint = privateBase - sharedROBase + 1 },
		func(s *Spec) { s.SharedROFootprint = -1 },
		func(s *Spec) { s.PrivatePerCore = privateStep + 1 },
	} {
		s = OLTPDB2()
		set(&s)
		if s.Validate() == nil {
			t.Errorf("out-of-region footprint accepted: %+v", s)
		}
	}
	s = OLTPDB2()
	s.InstrFootprint = sharedBase - instrBase
	s.PrivatePerCore = privateStep
	if err := s.Validate(); err != nil {
		t.Errorf("region-sized footprints rejected: %v", err)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(OLTPDB2(), 3)
	b := NewGenerator(OLTPDB2(), 3)
	for i := 0; i < 1000; i++ {
		ra, rb := a.Next(), b.Next()
		if ra != rb {
			t.Fatalf("ref %d differs: %+v vs %+v", i, ra, rb)
		}
	}
	// Different cores produce different streams.
	c := NewGenerator(OLTPDB2(), 4)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().Addr == c.Next().Addr {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("cores 3 and 4 nearly identical: %d/1000 matches", same)
	}
}

func TestClassMixConvergesToSpec(t *testing.T) {
	spec := OLTPDB2()
	counts := map[cache.Class]int{}
	writes := 0
	const n = 200000
	streams := Streams(spec)
	for i := 0; i < n; i++ {
		r := streams[i%spec.Cores].Next()
		counts[r.Class]++
		if r.IsWrite() {
			writes++
		}
	}
	frac := func(c cache.Class) float64 { return float64(counts[c]) / n }
	// Mixed-page redirection moves a sliver of private accesses into the
	// shared region but keeps their ground-truth class private, so class
	// fractions still converge to the spec.
	if f := frac(cache.ClassInstruction); f < spec.FracInstr-0.02 || f > spec.FracInstr+0.02 {
		t.Errorf("instr fraction %.3f, want ~%.3f", f, spec.FracInstr)
	}
	if f := frac(cache.ClassPrivate); f < spec.FracPrivate-0.02 || f > spec.FracPrivate+0.02 {
		t.Errorf("private fraction %.3f, want ~%.3f", f, spec.FracPrivate)
	}
	want := spec.FracSharedRW + spec.FracSharedRO
	if f := frac(cache.ClassShared); f < want-0.02 || f > want+0.02 {
		t.Errorf("shared fraction %.3f, want ~%.3f", f, want)
	}
	if writes == 0 {
		t.Error("no writes generated")
	}
}

func TestAddressRegionsDisjointAndClassified(t *testing.T) {
	spec := Apache()
	g := NewGenerator(spec, 5)
	for i := 0; i < 50000; i++ {
		r := g.Next()
		switch {
		case r.Addr >= instrBase && r.Addr < instrBase+uint64(spec.InstrFootprint):
			if r.Class != cache.ClassInstruction || r.Kind != trace.IFetch {
				t.Fatalf("instr region mislabelled: %+v", r)
			}
		case r.Addr >= sharedBase && r.Addr < sharedROBase:
			// Shared region hosts shared accesses plus this core's
			// mixed-page private lines.
			if r.Class == cache.ClassInstruction {
				t.Fatalf("instruction in shared region: %+v", r)
			}
		case r.Addr >= sharedROBase && r.Addr < privateBase:
			if r.Class != cache.ClassShared || r.IsWrite() {
				t.Fatalf("RO region violation: %+v", r)
			}
		case r.Addr >= privateBase:
			if r.Class != cache.ClassPrivate {
				t.Fatalf("private region mislabelled: %+v", r)
			}
			base := uint64(privateBase) + 5*uint64(privateStep)
			if r.Addr < base || r.Addr >= base+uint64(spec.PrivatePerCore) {
				t.Fatalf("core 5 escaped its private region: %#x", r.Addr)
			}
		default:
			t.Fatalf("address in no region: %#x", r.Addr)
		}
	}
}

func TestFootprintsRespected(t *testing.T) {
	spec := MIX()
	g := NewGenerator(spec, 0)
	maxInstr, maxShared := uint64(0), uint64(0)
	for i := 0; i < 50000; i++ {
		r := g.Next()
		if r.Class == cache.ClassInstruction && r.Addr-instrBase > maxInstr {
			maxInstr = r.Addr - instrBase
		}
		if r.Addr >= sharedBase && r.Addr < sharedROBase && r.Addr-sharedBase > maxShared {
			maxShared = r.Addr - sharedBase
		}
	}
	if maxInstr >= uint64(spec.InstrFootprint) {
		t.Fatalf("instruction footprint exceeded: %d >= %d", maxInstr, spec.InstrFootprint)
	}
	if maxShared >= uint64(spec.SharedFootprint) {
		t.Fatalf("shared footprint exceeded: %d >= %d", maxShared, spec.SharedFootprint)
	}
}

// em3d's producer-consumer pattern: every shared block must be touched by
// at most two cores, and those cores must be ring neighbors.
func TestNeighborSharingTwoSharers(t *testing.T) {
	spec := Em3d()
	streams := Streams(spec)
	sharers := map[uint64]map[int]bool{}
	for i := 0; i < 300000; i++ {
		r := streams[i%spec.Cores].Next()
		if r.Class != cache.ClassShared || r.Addr >= sharedROBase {
			continue
		}
		b := r.Addr &^ 63
		if sharers[b] == nil {
			sharers[b] = map[int]bool{}
		}
		sharers[b][r.Core] = true
	}
	for b, set := range sharers {
		if len(set) > 2 {
			t.Fatalf("block %#x has %d sharers, want <=2", b, len(set))
		}
		if len(set) == 2 {
			var cs []int
			for c := range set {
				cs = append(cs, c)
			}
			d := cs[0] - cs[1]
			if d < 0 {
				d = -d
			}
			if d != 1 && d != spec.Cores-1 {
				t.Fatalf("block %#x shared by non-neighbors %v", b, cs)
			}
		}
	}
}

// Mixed pages: the private lines of a mixed page must be touched by exactly
// one core (ground truth private), and shared draws must avoid them.
func TestMixedPagesSingleOwner(t *testing.T) {
	spec := OLTPDB2()
	streams := Streams(spec)
	owners := map[uint64]map[int]bool{} // page -> cores touching private tail
	for i := 0; i < 400000; i++ {
		r := streams[i%spec.Cores].Next()
		if r.Addr < sharedBase || r.Addr >= sharedROBase {
			continue
		}
		off := (r.Addr - sharedBase) % pageBytes / blockBytes
		page := (r.Addr - sharedBase) / pageBytes
		if page >= uint64(spec.MixedHotPages) {
			continue // only the hot head pages are mixed
		}
		if off >= pageBlocks-mixedBlocksPerPage {
			if r.Class != cache.ClassPrivate {
				t.Fatalf("shared access reached a mixed page's private tail: %+v", r)
			}
			if owners[page] == nil {
				owners[page] = map[int]bool{}
			}
			owners[page][r.Core] = true
		}
	}
	if len(owners) == 0 {
		t.Fatal("no mixed-page private accesses generated")
	}
	for page, set := range owners {
		if len(set) != 1 {
			t.Fatalf("mixed page %d touched by %d cores", page, len(set))
		}
	}
}

func TestScanStreamsSequentially(t *testing.T) {
	spec := DSSQry6()
	spec.PrivateSeqFrac = 1.0
	spec.FracInstr, spec.FracPrivate, spec.FracSharedRW, spec.FracSharedRO = 0, 1, 0, 0
	spec.MixedPrivFrac = 0
	g := NewGenerator(spec, 2)
	prev := g.Next().Addr
	for i := 0; i < 1000; i++ {
		cur := g.Next().Addr
		if cur != prev+blockBytes && cur >= prev {
			t.Fatalf("scan not sequential: %#x -> %#x", prev, cur)
		}
		prev = cur
	}
}

func TestBusyDistribution(t *testing.T) {
	spec := MIX()
	g := NewGenerator(spec, 0)
	sum, n := 0, 20000
	for i := 0; i < n; i++ {
		b := g.Next().Busy
		if b < spec.BusyPerRef/2 || b > spec.BusyPerRef/2+spec.BusyPerRef {
			t.Fatalf("busy %d outside [b/2, 3b/2]", b)
		}
		sum += b
	}
	mean := float64(sum) / float64(n)
	if mean < float64(spec.BusyPerRef)*0.95 || mean > float64(spec.BusyPerRef)*1.05 {
		t.Fatalf("mean busy %.1f, want ~%d", mean, spec.BusyPerRef)
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("OLTP-DB2"); !ok {
		t.Fatal("primary workload not found")
	}
	if _, ok := ByName("Zeus"); !ok {
		t.Fatal("extended workload not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown workload found")
	}
}

func TestGeneratorPanicsOnBadInput(t *testing.T) {
	spec := OLTPDB2()
	for _, fn := range []func(){
		func() { NewGenerator(spec, -1) },
		func() { NewGenerator(spec, spec.Cores) },
		func() {
			bad := spec
			bad.FracInstr = 2
			NewGenerator(bad, 0)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestCategoryString(t *testing.T) {
	if Server.String() != "server" || Scientific.String() != "scientific" || MultiProgrammed.String() != "multi-programmed" {
		t.Fatal("Category.String mismatch")
	}
}

func TestInstructionBurstReusesRecentBlocks(t *testing.T) {
	spec := OLTPDB2()
	spec.InstrBurst = 0.9
	g := NewGenerator(spec, 0)
	seen := map[uint64]int{}
	instr := 0
	for i := 0; i < 20000; i++ {
		r := g.Next()
		if r.Kind == trace.IFetch {
			instr++
			seen[r.Addr]++
		}
	}
	// With 90% bursts over a small ring, repeats dominate: distinct
	// blocks must be far fewer than fetches.
	if len(seen)*4 > instr {
		t.Fatalf("bursts not effective: %d distinct over %d fetches", len(seen), instr)
	}
}
