package tracefile

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"rnuca/internal/trace"
)

// Writer encodes a reference stream into the tracefile format. It is
// single-goroutine, like the engine that feeds it. Errors latch: after
// the first failure every Write is a no-op and Close returns the error.
type Writer struct {
	w   io.Writer
	hdr Header
	err error

	// ChunkRefs is the number of records per chunk. It may be lowered
	// before the first Write (tests use tiny chunks to exercise
	// boundaries); the zero value set by NewWriter is DefaultChunkRefs.
	// Values are clamped to at least 1, and however large the value, a
	// chunk is split as soon as its raw payload reaches maxChunkRaw so
	// the on-disk frame always stays within the format's byte bound.
	ChunkRefs int

	raw      []byte // encoded records of the open chunk
	nref     uint32
	total    uint64
	lastAddr []uint64 // per-core delta state, reset at chunk boundaries

	off uint64       // bytes written so far (chunk offsets for the index)
	idx []IndexEntry // one entry per flushed chunk (v2)

	gz    *gzip.Writer
	gzBuf bytes.Buffer
	frame [frameSize]byte
}

// NewWriter writes the preamble for hdr to w and returns a Writer
// appending chunks to it. hdr.Refs is ignored (the count is patched by
// FileWriter.Close when the destination can seek).
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	if hdr.Cores <= 0 || hdr.Cores > maxCores {
		return nil, fmt.Errorf("tracefile: core count %d outside 1..%d", hdr.Cores, maxCores)
	}
	hdr.Refs = 0
	pre := encodeHeader(hdr)
	if _, err := w.Write(pre); err != nil {
		return nil, fmt.Errorf("tracefile: writing header: %w", err)
	}
	return &Writer{
		w: w, hdr: hdr,
		ChunkRefs: DefaultChunkRefs,
		lastAddr:  make([]uint64, hdr.Cores),
		off:       uint64(len(pre)),
	}, nil
}

// Header returns the metadata the writer was created with.
func (w *Writer) Header() Header { return w.hdr }

// Total returns the number of records written so far.
func (w *Writer) Total() uint64 { return w.total }

// Err returns the latched error, if any.
func (w *Writer) Err() error { return w.err }

// chunkLimit is ChunkRefs clamped to a sane range.
func (w *Writer) chunkLimit() int {
	if w.ChunkRefs < 1 {
		return 1
	}
	return w.ChunkRefs
}

// Write appends one reference.
func (w *Writer) Write(r trace.Ref) error {
	if w.err != nil {
		return w.err
	}
	if r.Core < 0 || r.Core >= w.hdr.Cores {
		w.err = fmt.Errorf("tracefile: ref core %d outside 0..%d", r.Core, w.hdr.Cores-1)
		return w.err
	}
	w.raw = append(w.raw, byte(r.Kind)|byte(r.Class)<<4)
	w.raw = appendUvarint(w.raw, uint64(r.Core))
	w.raw = appendVarint(w.raw, int64(r.Thread-r.Core))
	w.raw = appendVarint(w.raw, int64(r.Addr-w.lastAddr[r.Core]))
	w.raw = appendUvarint(w.raw, uint64(r.Busy))
	w.lastAddr[r.Core] = r.Addr
	w.nref++
	w.total++
	if int(w.nref) >= w.chunkLimit() || len(w.raw) >= maxChunkRaw {
		return w.Flush()
	}
	return nil
}

// Flush closes the open chunk, writing it out. A no-op when the chunk is
// empty. The chunk's frame is checked against the format's byte bounds
// at flush time — Write splits chunks at maxChunkRaw so the check cannot
// trip in practice, but a violated bound latches an error rather than
// emitting a chunk the package's own Reader would reject as corrupt.
func (w *Writer) Flush() error {
	if w.err != nil || w.nref == 0 {
		return w.err
	}
	w.gzBuf.Reset()
	if w.gz == nil {
		w.gz = gzip.NewWriter(&w.gzBuf)
	} else {
		w.gz.Reset(&w.gzBuf)
	}
	if _, err := w.gz.Write(w.raw); err == nil {
		w.err = w.gz.Close()
	} else {
		w.err = err
	}
	if w.err == nil && (len(w.raw) > maxChunkBytes || w.gzBuf.Len() > maxChunkBytes) {
		w.err = fmt.Errorf("chunk payload %d/%d bytes exceeds format bound %d",
			len(w.raw), w.gzBuf.Len(), maxChunkBytes)
	}
	if w.err == nil {
		chunkOff := w.off
		binary.LittleEndian.PutUint32(w.frame[0:], uint32(w.gzBuf.Len()))
		binary.LittleEndian.PutUint32(w.frame[4:], uint32(len(w.raw)))
		binary.LittleEndian.PutUint32(w.frame[8:], w.nref)
		if _, err := w.w.Write(w.frame[:]); err != nil {
			w.err = err
		} else if _, err := w.w.Write(w.gzBuf.Bytes()); err != nil {
			w.err = err
		}
		if w.err == nil {
			w.idx = append(w.idx, IndexEntry{
				Offset:      chunkOff,
				FirstRecord: w.total - uint64(w.nref),
				Count:       w.nref,
				LastAddr:    append([]uint64(nil), w.lastAddr...),
			})
		}
	}
	if w.err != nil {
		w.err = fmt.Errorf("tracefile: writing chunk: %w", w.err)
		return w.err
	}
	w.off += frameSize + uint64(w.gzBuf.Len())
	w.raw = w.raw[:0]
	w.nref = 0
	for c := range w.lastAddr {
		w.lastAddr[c] = 0
	}
	return nil
}

// writeIndex appends the gzip-framed chunk index, returning its frame's
// byte offset for the footer.
func (w *Writer) writeIndex() (uint64, error) {
	raw := encodeIndex(w.idx, w.hdr.Cores)
	w.gzBuf.Reset()
	if w.gz == nil {
		w.gz = gzip.NewWriter(&w.gzBuf)
	} else {
		w.gz.Reset(&w.gzBuf)
	}
	if _, err := w.gz.Write(raw); err != nil {
		return 0, err
	}
	if err := w.gz.Close(); err != nil {
		return 0, err
	}
	if len(raw) > maxChunkBytes || w.gzBuf.Len() > maxChunkBytes {
		return 0, fmt.Errorf("index payload %d/%d bytes exceeds format bound %d",
			len(raw), w.gzBuf.Len(), maxChunkBytes)
	}
	indexOff := w.off
	binary.LittleEndian.PutUint32(w.frame[0:], uint32(w.gzBuf.Len()))
	binary.LittleEndian.PutUint32(w.frame[4:], uint32(len(raw)))
	binary.LittleEndian.PutUint32(w.frame[8:], indexMarker)
	if _, err := w.w.Write(w.frame[:]); err != nil {
		return 0, err
	}
	if _, err := w.w.Write(w.gzBuf.Bytes()); err != nil {
		return 0, err
	}
	w.off += frameSize + uint64(w.gzBuf.Len())
	return indexOff, nil
}

// Close flushes the final chunk and writes the index, the terminator
// frame, and the footer. It does not close the
// underlying io.Writer (FileWriter does).
func (w *Writer) Close() error {
	if err := w.Flush(); err != nil {
		return err
	}
	indexOff, err := w.writeIndex()
	if err != nil {
		w.err = fmt.Errorf("tracefile: writing index: %w", err)
		return w.err
	}
	binary.LittleEndian.PutUint32(w.frame[0:], 0)
	binary.LittleEndian.PutUint32(w.frame[4:], 0)
	binary.LittleEndian.PutUint32(w.frame[8:], uint32(w.total))
	if _, err := w.w.Write(w.frame[:]); err != nil {
		w.err = fmt.Errorf("tracefile: writing terminator: %w", err)
		return w.err
	}
	w.off += frameSize
	if _, err := w.w.Write(encodeFooter(indexOff, w.total, uint32(len(w.idx)))); err != nil {
		w.err = fmt.Errorf("tracefile: writing footer: %w", err)
	}
	return w.err
}
