// Package snap implements the versioned binary codec behind the
// framework's deterministic checkpoint/restore subsystem.
//
// A snapshot is a little-endian binary stream: an 8-byte magic, a format
// version, a kind tag (so a stream written for one restorer cannot be
// misread by another), and then a sequence of primitive fields written and
// read in lockstep by the two sides of the codec. Both Writer and Reader
// carry a sticky error, so serialization code reads as straight-line field
// lists with a single error check at the end — the same style as
// encoding/binary with none of the reflection cost.
//
// The codec is deliberately dumb: it has no schema, no field tags, and no
// skipping. Structure lives in the callers (sim.Engine, the protocol
// Snapshotter implementations, core.System), which delimit variable parts
// with explicit counts and length-prefixed sections. What the codec does
// own is versioning: Header/Expect reject foreign files, wrong kinds, and
// future format versions with precise errors instead of garbage reads.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"sosf/internal/view"
)

// magic identifies a sosf snapshot stream.
const magic = "SOSFSNAP"

// Version is the current snapshot format version. Bump it for any change
// to the byte layout; Reader.Header rejects versions it does not know.
const Version = 3

// maxChunk bounds a single length-prefixed byte field (64 MiB). Snapshots
// of very large populations split state across many fields, so a larger
// length is always corruption, not scale.
const maxChunk = 64 << 20

// readChunk bounds how far Reader.Bytes allocates ahead of the bytes it has
// actually read: a declared length is trusted only as far as the stream
// backs it, so a ten-byte input claiming maxChunk costs one readChunk, not
// 64 MiB.
const readChunk = 64 << 10

// ErrCorrupt is wrapped by decode errors caused by a malformed stream.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Writer encodes primitive fields onto an io.Writer with a sticky error.
type Writer struct {
	w       io.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// NewWriter returns a Writer encoding onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Header writes the stream header: magic, format version, and a kind tag.
func (w *Writer) Header(kind string) {
	w.write([]byte(magic))
	w.U16(Version)
	w.String(kind)
}

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.scratch[:2], v)
	w.write(w.scratch[:2])
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.scratch[:4], v)
	w.write(w.scratch[:4])
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.write(w.scratch[:8])
}

// I64 writes a fixed-width little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes a single 0/1 byte.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.write([]byte{b})
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// Varint writes a signed (zigzag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.write(w.scratch[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Len writes a non-negative count.
func (w *Writer) Len(n int) { w.Uvarint(uint64(n)) }

// Bytes writes a length-prefixed byte field.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	w.write(p)
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.write([]byte(s))
}

// Reader decodes primitive fields from an io.Reader with a sticky error.
type Reader struct {
	r       io.ByteReader
	full    io.Reader
	scratch [8]byte
	err     error
}

// byteReader adapts a plain io.Reader to io.ByteReader.
type byteReader struct {
	r   io.Reader
	buf [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.buf[:]); err != nil {
		return 0, err
	}
	return b.buf[0], nil
}

// init points the reader at src, promoting it to an io.ByteReader (varint
// decoding needs one) without double-buffering sources that already are.
func (r *Reader) init(src io.Reader) {
	if br, ok := src.(interface {
		io.Reader
		io.ByteReader
	}); ok {
		r.r, r.full = br, br
		return
	}
	br := &byteReader{r: src}
	r.r, r.full = br, br
}

// NewReader returns a Reader decoding from src.
func NewReader(src io.Reader) *Reader {
	r := &Reader{}
	r.init(src)
	return r
}

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

func (r *Reader) read(n int) []byte {
	if r.err != nil {
		return r.scratch[:n]
	}
	if _, err := io.ReadFull(r.full, r.scratch[:n]); err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
	return r.scratch[:n]
}

// Header reads and validates the stream header against the expected kind.
func (r *Reader) Header(kind string) {
	var m [len(magic)]byte
	if r.err == nil {
		if _, err := io.ReadFull(r.full, m[:]); err != nil {
			r.fail(fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err))
		}
	}
	if r.err == nil && string(m[:]) != magic {
		r.failf("not a sosf snapshot (bad magic %q)", m)
	}
	v := r.U16()
	if r.err == nil && v != Version {
		r.failf("unsupported snapshot format version %d (this build reads version %d)", v, Version)
	}
	k := r.String()
	if r.err == nil && k != kind {
		r.failf("snapshot kind is %q, want %q", k, kind)
	}
}

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.read(2)) }

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.read(4)) }

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.read(8)) }

// I64 reads a fixed-width little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a single 0/1 byte.
func (r *Reader) Bool() bool {
	b := r.read(1)[0]
	if r.err == nil && b > 1 {
		r.failf("invalid bool byte %d", b)
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
	return v
}

// Varint reads a signed (zigzag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
	}
	return v
}

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Len reads a count and validates it against maxChunk.
func (r *Reader) Len() int {
	v := r.Uvarint()
	if r.err == nil && v > maxChunk {
		r.failf("length %d exceeds the %d-byte sanity bound", v, maxChunk)
	}
	return int(v)
}

// Bytes reads a length-prefixed byte field, growing the result in
// readChunk steps as the bytes arrive.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	p := make([]byte, 0, min(n, readChunk))
	for len(p) < n {
		start := len(p)
		end := start + min(n-start, readChunk)
		p = slices.Grow(p, end-start)[:end]
		if _, err := io.ReadFull(r.full, p[start:]); err != nil {
			r.fail(fmt.Errorf("%w: %v", ErrCorrupt, err))
			return nil
		}
	}
	return p
}

// String reads a length-prefixed UTF-8 string.
func (r *Reader) String() string { return string(r.Bytes()) }

// ExpectEOF fails the reader unless the underlying stream is exhausted —
// the "section fully consumed" check restore paths run after decoding a
// length-delimited body.
func (r *Reader) ExpectEOF() {
	if r.err != nil {
		return
	}
	var one [1]byte
	if n, err := r.full.Read(one[:]); n > 0 || (err != nil && err != io.EOF) {
		r.failf("trailing bytes after the last field")
	}
}

// WriteProfile encodes a node profile.
func WriteProfile(w *Writer, p view.Profile) {
	w.Varint(int64(p.Comp))
	w.Varint(int64(p.Index))
	w.Varint(int64(p.Size))
	w.U64(p.Key)
	w.U32(p.Epoch)
}

// ReadProfile decodes a node profile.
func ReadProfile(r *Reader) view.Profile {
	return view.Profile{
		Comp:  view.ComponentID(r.Varint()),
		Index: int32(r.Varint()),
		Size:  int32(r.Varint()),
		Key:   r.U64(),
		Epoch: r.U32(),
	}
}

// WriteDescriptor encodes a gossip descriptor.
func WriteDescriptor(w *Writer, d view.Descriptor) {
	w.Varint(int64(d.ID))
	w.U16(d.Age)
	WriteProfile(w, d.Profile)
}

// ReadDescriptor decodes a gossip descriptor.
func ReadDescriptor(r *Reader) view.Descriptor {
	return view.Descriptor{
		ID:      view.NodeID(r.Varint()),
		Age:     r.U16(),
		Profile: ReadProfile(r),
	}
}

// WriteView encodes a bounded partial view: capacity, then entries in view
// order (order is state — Oldest breaks age ties by position).
func WriteView(w *Writer, v *view.View) {
	w.Len(v.Cap())
	w.Len(v.Len())
	for i := 0; i < v.Len(); i++ {
		WriteDescriptor(w, v.At(i))
	}
}

// ReadViewInto decodes a view written by WriteView into the table's slot,
// carving entry storage from the table's arena — the restore path of the
// struct-of-arrays protocol state. Entry storage is sized by the entries
// that arrive, not the declared capacity or entry count: a corrupt count
// must not reserve memory, and a view grows on demand.
func ReadViewInto(r *Reader, t *view.Table, slot int) {
	capacity := r.Len()
	n := r.Len()
	if r.err != nil {
		return
	}
	if n > capacity {
		r.failf("view holds %d entries over capacity %d", n, capacity)
		return
	}
	v := t.Init(slot, min(n, 64)) // grown as entries arrive
	v.SetCap(capacity)
	for i := 0; i < n; i++ {
		d := ReadDescriptor(r)
		if r.err != nil {
			return
		}
		if !v.Add(d) {
			r.failf("duplicate or unplaceable view entry for node %d", d.ID)
			return
		}
	}
}
