package ingest

import (
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rnuca/internal/trace"
)

// decodeAll drains a decoder, failing the test on a decode error.
func decodeAll(t *testing.T, d Decoder) []trace.Ref {
	t.Helper()
	var refs []trace.Ref
	for {
		r, ok := d.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return refs
}

// openFixture opens a testdata file through the full Open path.
func openFixture(t *testing.T, name, format string) (Decoder, func()) {
	t.Helper()
	d, closer, err := Open(filepath.Join("testdata", name), format)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return d, func() { closer.Close() }
}

func kindCounts(refs []trace.Ref) (k [3]int) {
	for _, r := range refs {
		k[r.Kind]++
	}
	return k
}

// The checked-in Dinero fixture decodes to its known record mix, and
// the head of the stream matches the file byte for byte.
func TestDineroGolden(t *testing.T) {
	d, done := openFixture(t, "tiny.din", "")
	defer done()
	refs := decodeAll(t, d)
	if len(refs) != 720 {
		t.Fatalf("decoded %d refs, want 720", len(refs))
	}
	if k := kindCounts(refs); k != [3]int{240, 412, 68} {
		t.Fatalf("kind mix %v, want [240 412 68]", k)
	}
	want := []trace.Ref{
		{Kind: trace.IFetch, Addr: 0x408000},
		{Kind: trace.Load, Addr: 0x1000b000},
		{Kind: trace.Load, Addr: 0x100343c0},
		{Kind: trace.IFetch, Addr: 0x400040},
	}
	for i, w := range want {
		if refs[i] != w {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], w)
		}
	}
}

// The ChampSim-style fixture expands each instruction line into an
// IFetch plus its memory operands, in order.
func TestChampSimGolden(t *testing.T) {
	d, done := openFixture(t, "tiny.champ", "")
	defer done()
	refs := decodeAll(t, d)
	if len(refs) != 480 {
		t.Fatalf("decoded %d refs, want 480", len(refs))
	}
	if k := kindCounts(refs); k != [3]int{240, 180, 60} {
		t.Fatalf("kind mix %v, want [240 180 60]", k)
	}
	// Each instruction line's IFetch carries Busy 1 (one retired
	// instruction per line at IPC 1); operand refs belong to the same
	// instruction and carry 0.
	want := []trace.Ref{
		{Kind: trace.IFetch, Addr: 0x401000, Busy: 1},
		{Kind: trace.Load, Addr: 0x30000940},
		{Kind: trace.IFetch, Addr: 0x401004, Busy: 1},
		{Kind: trace.Load, Addr: 0x3000b400},
		{Kind: trace.Store, Addr: 0x400077c0},
		{Kind: trace.IFetch, Addr: 0x401008, Busy: 1},
	}
	for i, w := range want {
		if refs[i] != w {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], w)
		}
	}
}

// ChampSim Busy derivation: dense lines charge 1 instruction each, and
// an explicit n:COUNT field (cumulative retired-instruction number)
// charges the gap since the previous line — the decimated-trace form.
func TestChampSimDerivedBusy(t *testing.T) {
	f, _ := ByName("champsim")
	d := f.New(strings.NewReader(
		"n:100 401000 l:30000940\n"+
			"401004\n"+ // implicit: one instruction after 100
			"n:205 401008 s:400077c0\n"+ // 104 skipped non-memory instructions
			"401010\n"), "busy.champ")
	refs := decodeAll(t, d)
	want := []trace.Ref{
		{Kind: trace.IFetch, Addr: 0x401000, Busy: 1}, // first line: no known predecessor
		{Kind: trace.Load, Addr: 0x30000940},
		{Kind: trace.IFetch, Addr: 0x401004, Busy: 1},
		{Kind: trace.IFetch, Addr: 0x401008, Busy: 104}, // 205 - 101
		{Kind: trace.Store, Addr: 0x400077c0},
		{Kind: trace.IFetch, Addr: 0x401010, Busy: 1},
	}
	if len(refs) != len(want) {
		t.Fatalf("decoded %d refs, want %d", len(refs), len(want))
	}
	for i, w := range want {
		if refs[i] != w {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], w)
		}
	}

	// Non-increasing counts are a damaged trace, reported in place.
	d = f.New(strings.NewReader("n:50 401000\nn:50 401004\n"), "bad.champ")
	decodeUntilError(d)
	var perr *ParseError
	if err := d.Err(); !errors.As(err, &perr) || perr.Line != 2 ||
		!strings.Contains(perr.Msg, "not after") {
		t.Fatalf("non-monotone count error: %v", d.Err())
	}
}

func decodeUntilError(d Decoder) {
	for {
		if _, ok := d.Next(); !ok {
			return
		}
	}
}

// The CSV fixture round-trips every field combination: bare and
// 0x-prefixed addresses, every kind spelling, optional core and thread.
func TestCSVGolden(t *testing.T) {
	d, done := openFixture(t, "tiny.csv", "")
	defer done()
	refs := decodeAll(t, d)
	want := []trace.Ref{
		{Kind: trace.IFetch, Addr: 0x401000},
		{Kind: trace.IFetch, Addr: 0x401040},
		{Kind: trace.Load, Addr: 4096, Core: 1, Thread: 1},
		{Kind: trace.Load, Addr: 0x10000040, Core: 1, Thread: 1},
		{Kind: trace.Store, Addr: 0x10000080, Core: 2, Thread: 2},
		{Kind: trace.Store, Addr: 0x20000000, Core: 3, Thread: 3},
		{Kind: trace.Load, Addr: 0x20000040, Core: 3, Thread: 3},
		{Kind: trace.Store, Addr: 8192},
		{Kind: trace.IFetch, Addr: 0x401080, Core: 1, Thread: 1},
		{Kind: trace.Load, Addr: 0x10000100, Core: 2, Thread: 2},
		{Kind: trace.Store, Addr: 0x20000080, Core: 3, Thread: 7},
	}
	if len(refs) != len(want) {
		t.Fatalf("decoded %d refs, want %d", len(refs), len(want))
	}
	for i, w := range want {
		if refs[i] != w {
			t.Fatalf("ref %d = %+v, want %+v", i, refs[i], w)
		}
	}
}

// Gzipped inputs inflate transparently, and detection strips the .gz
// suffix before matching the format extension.
func TestGzipAutoDetect(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "tiny.din"))
	if err != nil {
		t.Fatal(err)
	}
	gzPath := filepath.Join(t.TempDir(), "tiny.din.gz")
	f, err := os.Create(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d, closer, err := Open(gzPath, "")
	if err != nil {
		t.Fatalf("open gzipped: %v", err)
	}
	defer closer.Close()
	refs := decodeAll(t, d)
	if len(refs) != 720 {
		t.Fatalf("gzipped fixture decoded %d refs, want 720", len(refs))
	}
}

func TestDetect(t *testing.T) {
	cases := []struct {
		path string
		want string
		ok   bool
	}{
		{"a.din", "din", true},
		{"A.DIN", "din", true},
		{"b.champ.gz", "champsim", true},
		{"c.ctrace", "champsim", true},
		{"d.csv", "csv", true},
		{"d.csv.gz", "csv", true},
		{"e.bin", "", false},
		{"f", "", false},
	}
	for _, c := range cases {
		f, ok := Detect(c.path)
		if ok != c.ok || (ok && f.Name != c.want) {
			t.Errorf("Detect(%q) = %q,%v; want %q,%v", c.path, f.Name, ok, c.want, c.ok)
		}
	}
	if _, _, err := Open(filepath.Join("testdata", "tiny.din"), "nope"); err == nil {
		t.Fatal("unknown explicit format accepted")
	}
}

// Every decoder reports malformed input with the exact file, line, and
// a plausible byte offset, and latches the error.
func TestErrorsCarryPosition(t *testing.T) {
	cases := []struct {
		format, content, wantMsg string
	}{
		{"din", "2 400000\n0 10000000\n9 10\n", "label"},
		{"din", "2 400000\n0 10000000\n0 zz\n", "address"},
		{"din", "2 400000\n0 10000000\nlonely\n", "label address"},
		{"champsim", "401000\n401004 l:30000000\n401008 x:10\n", "operand"},
		{"champsim", "401000\n401004\nzz l:10\n", "instruction pointer"},
		{"csv", "0x10,load\n0x20,store\n0x30,jump\n", "kind"},
		{"csv", "0x10,load\n0x20,store\n0x30,load,-1\n", "core"},
		{"csv", "0x10,load\n0x20,store\nzz,load\n", "address"},
	}
	for _, c := range cases {
		f, ok := ByName(c.format)
		if !ok {
			t.Fatalf("format %q unregistered", c.format)
		}
		d := f.New(strings.NewReader(c.content), "input.txt")
		for {
			if _, ok := d.Next(); !ok {
				break
			}
		}
		err := d.Err()
		if err == nil {
			t.Fatalf("%s: malformed line accepted", c.format)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %T is not a ParseError: %v", c.format, err, err)
		}
		if pe.Line != 3 {
			t.Errorf("%s: error on line %d, want 3: %v", c.format, pe.Line, err)
		}
		if pe.Offset <= 0 || pe.File != "input.txt" {
			t.Errorf("%s: error lacks position: %+v", c.format, pe)
		}
		if !strings.Contains(err.Error(), c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.format, err, c.wantMsg)
		}
		// The error latches: further Nexts keep failing.
		if _, ok := d.Next(); ok {
			t.Errorf("%s: decoder kept producing after an error", c.format)
		}
	}
}

// Oversized lines are rejected rather than buffered without bound.
func TestLineLengthBound(t *testing.T) {
	f, _ := ByName("din")
	d := f.New(strings.NewReader("2 "+strings.Repeat("4", maxLineBytes)), "big.din")
	for {
		if _, ok := d.Next(); !ok {
			break
		}
	}
	var pe *ParseError
	if err := d.Err(); !errors.As(err, &pe) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized line: %v", err)
	}
}

// Each decoder's per-Next allocations, pinned at their measured values
// (go1.24): a line costs a read buffer, its string and the field split,
// which champsim spreads over the line's several refs. Budgets only
// ratchet down.
func TestDecoderSteadyStateAllocs(t *testing.T) {
	for _, fx := range []struct {
		file, format string
		budget       float64
	}{
		{"tiny.din", "din", 3}, {"tiny.champ", "champsim", 1}, {"tiny.csv", "csv", 3},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		// Comments and the CSV header once, then the records many times.
		var head, body strings.Builder
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "addr,") {
				head.WriteString(line)
			} else {
				body.WriteString(line)
			}
		}
		f, _ := ByName(fx.format)
		d := f.New(strings.NewReader(head.String()+strings.Repeat(body.String(), 200)), fx.file)
		for i := 0; i < 100; i++ {
			d.Next()
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if _, ok := d.Next(); !ok {
				t.Fatalf("%s: decoder dry: %v", fx.file, d.Err())
			}
		})
		if allocs > fx.budget {
			t.Errorf("%s: %.2f allocs per Next, budget %.0f", fx.format, allocs, fx.budget)
		}
	}
}
