package tracefile

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// fuzzSeed builds one valid v2 trace for the fuzzers to mutate.
func fuzzSeed() []byte {
	rng := rand.New(rand.NewSource(1))
	return writeTrace(nil, Header{Workload: "fuzz", Design: "R", Cores: 4,
		Seed: 99, Warm: 10, Measure: 90, OffChipMLP: 1.5},
		randRefs(rng, 200, 4), 32)
}

// fuzzSeedRetired is fuzzSeed stamped with the retired v1 version,
// which readers refuse up front.
func fuzzSeedRetired() []byte {
	b := fuzzSeed()
	binary.LittleEndian.PutUint16(b[4:], 1)
	return b
}

// FuzzReader hammers the streaming reader with arbitrary bytes —
// truncated files, corrupt headers, mangled chunk frames, garbage gzip
// payloads, damaged index sections and footers. The reader must never
// panic and never loop forever; any structural damage must surface
// through Err.
func FuzzReader(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	f.Add(fuzzSeedRetired())
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-footerSize/2]) // cut inside the footer
	f.Add(valid[:20])
	f.Add([]byte("RNTR"))
	f.Add([]byte{})
	// A frame declaring a huge chunk must be rejected, not allocated.
	huge := append([]byte(nil), valid...)
	copy(huge[len(huge)-frameSize-footerSize:], []byte{0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f})
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Decoded refs are bounded by the input: every record costs at
		// least one payload byte and chunk payloads are capped, so this
		// loop terminates; the cap is a belt-and-suspenders guard.
		for n := 0; n < 1<<22; n++ {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() == nil && !r.eof {
			t.Fatal("reader stopped without EOF or error")
		}
	})
}

// FuzzIndexedReader mutates valid v2 bytes under the random-access
// path: opening must reject structural damage or yield an index whose
// cursors and parallel sources decode without panicking, and whatever
// the sequential reader accepts the cursors must reproduce.
func FuzzIndexedReader(f *testing.F) {
	valid := fuzzSeed()
	f.Add(valid)
	f.Add(fuzzSeedRetired())
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(valid)/3])
	// Footer pointing into the footer itself.
	bad := append([]byte(nil), valid...)
	copy(bad[len(bad)-footerSize:], encodeFooter(uint64(len(bad)-4), 200, 7))
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := NewIndexedReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		cur, err := x.Seek(0)
		if err != nil {
			return
		}
		var got []uint64
		for n := 0; n < 1<<22; n++ {
			r, ok := cur.Next()
			if !ok {
				break
			}
			got = append(got, r.Addr)
		}
		if cur.Err() != nil {
			return
		}
		// A cleanly-decoded trace must agree with the sequential reader.
		_, seq, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("cursor decoded %d refs cleanly, sequential reader failed: %v", len(got), err)
		}
		if len(seq) != len(got) {
			t.Fatalf("cursor decoded %d refs, sequential reader %d", len(got), len(seq))
		}
		for i := range seq {
			if seq[i].Addr != got[i] {
				t.Fatalf("ref %d: cursor %#x, sequential %#x", i, got[i], seq[i].Addr)
			}
		}
		// Shards must union to the same count without panicking.
		var n uint64
		for i := 0; i < 3; i++ {
			s, err := x.Shard(i, 3)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			for {
				if _, ok := s.Next(); !ok {
					break
				}
				n++
			}
			if s.Err() != nil {
				return
			}
		}
		if n != uint64(len(got)) {
			t.Fatalf("shards decoded %d of %d refs", n, len(got))
		}
	})
}
