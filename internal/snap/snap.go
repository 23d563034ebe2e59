// Package snap implements the versioned binary codec behind the
// framework's deterministic checkpoint/restore subsystem and the
// distributed runtime's barrier messages.
//
// A snapshot is a little-endian binary stream: an 8-byte magic, a format
// version, a kind tag (so a stream written for one restorer cannot be
// misread by another), and then a sequence of primitive fields written and
// read in lockstep by the two sides of the codec. Both Writer and Reader
// carry a sticky error, so serialization code reads as straight-line field
// lists with a single error check at the end — the same style as
// encoding/binary with none of the reflection cost.
//
// # Byte windows
//
// Both sides work on a byte window, so a field costs a few slice
// operations and no interface call. A Writer appends every field to a
// []byte it owns (binary.AppendVarint, LittleEndian.AppendUint64): the zero
// Writer keeps everything and hands it out through Encoded, and a Writer
// made by NewWriter flushes the window to its io.Writer whenever it passes
// 64 KiB, and at Flush. A Reader decodes with binary.Uvarint and
// fixed-width loads from a window: NewBytesReader (or Reset) decodes a
// []byte in place, and NewReader refills the window from an io.Reader in
// 64 KiB pieces whenever a field runs off its end. There is one decode
// path either way; a source only decides what happens at the window's end.
//
// A Reader over an io.Reader reads ahead of the field it decodes, so a
// stream that several decoders read in turn (core restore, then the sosf
// trailer) must go through one *Reader, handed from decoder to decoder.
//
// The codec is deliberately dumb: it has no schema, no field tags, and no
// skipping. Structure lives in the callers (sim.Engine, the protocols'
// SnapshotSlot/RestoreSlot methods, core.System), which delimit variable parts
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

// chunk is how much a stream moves at a time: a Writer with a sink flushes
// its window once it holds a chunk, and a Reader refills its window from
// an io.Reader a chunk at a time. It also bounds how far Reader.Bytes
// allocates ahead of the bytes it has actually read: a declared length is
// trusted only as far as the stream backs it, so a ten-byte input claiming
// maxChunk costs one chunk, not 64 MiB.
const chunk = 64 << 10

// ErrCorrupt is wrapped by decode errors caused by a malformed stream.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// Writer encodes primitive fields by appending them to a byte window, with
// a sticky error. The zero Writer appends to a buffer of its own and never
// fails; Encoded returns what it holds.
type Writer struct {
	buf  []byte    // encoded and not yet flushed
	sink io.Writer // nil: buf keeps everything
	err  error
}

// NewWriter returns a Writer that flushes its window to sink in chunks.
// Call Flush after the last field.
func NewWriter(sink io.Writer) *Writer { return &Writer{sink: sink} }

// Reset turns w into a sinkless Writer appending to dst, so a buffer
// reused across messages keeps its capacity.
func (w *Writer) Reset(dst []byte) { *w = Writer{buf: dst} }

// Encoded returns the bytes written and not yet flushed: for a sinkless
// Writer, dst followed by every field written since Reset.
func (w *Writer) Encoded() []byte { return w.buf }

// Err returns the first write error, or nil.
func (w *Writer) Err() error { return w.err }

// Flush writes the window to the sink (a no-op without one) and returns
// the first write error.
func (w *Writer) Flush() error {
	if w.sink != nil {
		if len(w.buf) > 0 && w.err == nil {
			_, w.err = w.sink.Write(w.buf)
		}
		w.buf = w.buf[:0]
	}
	return w.err
}

// spill flushes a sink's window once it holds a chunk.
func (w *Writer) spill() {
	if len(w.buf) >= chunk && w.sink != nil {
		w.Flush()
	}
}

// Header writes the stream header: magic, format version, and a kind tag.
func (w *Writer) Header(kind string) {
	w.buf = append(w.buf, magic...)
	w.U16(Version)
	w.String(kind)
}

// U16 writes a fixed-width little-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	w.spill()
}

// U32 writes a fixed-width little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	w.spill()
}

// U64 writes a fixed-width little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	w.spill()
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
	w.buf = append(w.buf, b)
	w.spill()
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
	w.spill()
}

// Varint writes a signed (zigzag) varint.
func (w *Writer) Varint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
	w.spill()
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Len writes a non-negative count.
func (w *Writer) Len(n int) { w.Uvarint(uint64(n)) }

// Bytes writes a length-prefixed byte field. A chunk or more goes
// straight to the sink instead of through the window.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	if len(p) >= chunk && w.sink != nil {
		if w.Flush() == nil {
			_, w.err = w.sink.Write(p)
		}
		return
	}
	w.buf = append(w.buf, p...)
	w.spill()
}

// String writes a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.buf = append(w.buf, s...)
	w.spill()
}

// Reader decodes primitive fields from a byte window with a sticky error.
// The zero Reader decodes an empty input; Reset points it at a []byte.
type Reader struct {
	buf    []byte    // the window; buf[off:] is not decoded yet
	off    int       // decode position in buf
	base   int       // stream bytes that slid out of the window before buf[0]
	src    io.Reader // refills buf; nil when buf is the whole input
	srcErr error     // why src stopped; it is not read again
	err    error
}

// NewReader returns a Reader that decodes src, refilling its window from
// it in chunks. It reads ahead of the fields it returns.
func NewReader(src io.Reader) *Reader { return &Reader{src: src} }

// NewBytesReader returns a Reader that decodes p in place.
func NewBytesReader(p []byte) *Reader { return &Reader{buf: p} }

// Reset makes r decode p in place, from its first byte.
func (r *Reader) Reset(p []byte) { *r = Reader{buf: p} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns how many bytes of the input the decoded fields took.
func (r *Reader) Offset() int { return r.base + r.off }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) failf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// truncated fails the reader for a field that runs past the input.
func (r *Reader) truncated() {
	cause := io.ErrUnexpectedEOF
	if r.srcErr != nil && r.srcErr != io.EOF {
		cause = r.srcErr
	}
	r.fail(fmt.Errorf("%w: %v", ErrCorrupt, cause))
}

// refill slides the window's undecoded tail to its front and reads the
// source in behind it until the window holds n bytes (n <= chunk) or
// the source ends. It reports whether the window holds n bytes.
func (r *Reader) refill(n int) bool {
	if r.src == nil || r.srcErr != nil {
		return false
	}
	if cap(r.buf) < chunk {
		r.buf = append(make([]byte, 0, chunk), r.buf[r.off:]...)
	} else {
		r.buf = r.buf[:copy(r.buf[:cap(r.buf)], r.buf[r.off:])]
	}
	r.base += r.off
	r.off = 0
	for len(r.buf) < n {
		m, err := r.src.Read(r.buf[len(r.buf):cap(r.buf)])
		r.buf = r.buf[:len(r.buf)+m]
		if err != nil {
			r.srcErr = err
			break
		}
	}
	return len(r.buf) >= n
}

// zeros backs the fixed-width reads of a failed reader.
var zeros [8]byte

// take returns the next n (<= chunk) bytes of the window, valid until
// the next read. On a failed reader or a short input it returns zeros.
func (r *Reader) take(n int) []byte {
	if r.err == nil && (len(r.buf)-r.off >= n || r.refill(n)) {
		p := r.buf[r.off : r.off+n]
		r.off += n
		return p
	}
	r.truncated()
	if n <= len(zeros) {
		return zeros[:n]
	}
	return make([]byte, n)
}

// Header reads and validates the stream header against the expected kind.
func (r *Reader) Header(kind string) {
	m := r.take(len(magic))
	if r.err == nil && string(m) != magic {
		r.failf("not a sosf snapshot (bad magic %q)", m)
	}
	v := r.U16()
	if r.err == nil && v != Version {
		r.failf("unsupported snapshot format version %d (this build reads version %d)", v, Version)
	}
	// The kind is compared in the window, without a copy.
	if n := r.Len(); r.err == nil {
		if n > chunk {
			r.failf("snapshot kind tag is %d bytes long", n)
		} else if k := r.take(n); r.err == nil && string(k) != kind {
			r.failf("snapshot kind is %q, want %q", k, kind)
		}
	}
}

// U16 reads a fixed-width little-endian uint16.
func (r *Reader) U16() uint16 { return binary.LittleEndian.Uint16(r.take(2)) }

// U32 reads a fixed-width little-endian uint32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }

// U64 reads a fixed-width little-endian uint64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// I64 reads a fixed-width little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a single 0/1 byte.
func (r *Reader) Bool() bool {
	b := r.take(1)[0]
	if r.err == nil && b > 1 {
		r.failf("invalid bool byte %d", b)
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	for r.err == nil {
		v, n := binary.Uvarint(r.buf[r.off:])
		if n > 0 {
			r.off += n
			return v
		}
		if n < 0 {
			r.failf("varint overflows a 64-bit integer")
		} else if !r.refill(len(r.buf) - r.off + 1) {
			r.truncated()
		}
	}
	return 0
}

// Varint reads a signed (zigzag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
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

// Bytes reads a length-prefixed byte field into a new slice, growing it as
// the bytes arrive.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil {
		return nil
	}
	p := make([]byte, 0, min(n, chunk))
	for len(p) < n {
		if r.off == len(r.buf) && !r.refill(1) {
			r.truncated()
			return nil
		}
		k := min(n-len(p), len(r.buf)-r.off)
		p = append(p, r.buf[r.off:r.off+k]...)
		r.off += k
	}
	return p
}

// String reads a length-prefixed UTF-8 string.
func (r *Reader) String() string { return string(r.Bytes()) }

// ExpectEOF fails the reader unless the input is exhausted — the "section
// fully consumed" check restore paths run after decoding a length-delimited
// body.
func (r *Reader) ExpectEOF() {
	if r.err != nil {
		return
	}
	if r.off < len(r.buf) || r.refill(1) {
		r.failf("trailing bytes after the last field")
	} else if r.srcErr != nil && r.srcErr != io.EOF {
		r.truncated()
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
