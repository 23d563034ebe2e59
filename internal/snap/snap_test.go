package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"sosf/internal/view"
)

// writeFields writes one of every Writer field.
func writeFields(w *Writer) {
	w.Header("test")
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<63 + 17)
	w.I64(-42)
	w.F64(3.5)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(1 << 40)
	w.Uvarint(math.MaxUint64)
	w.Varint(-(1 << 40))
	w.Varint(math.MinInt64)
	w.Int(-7)
	w.Len(3)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	w.Bytes(nil)
}

// readFields reads back what writeFields wrote, up to the end of the
// input.
func readFields(t *testing.T, r *Reader) {
	t.Helper()
	r.Header("test")
	if got := r.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<63+17 {
		t.Fatalf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := r.F64(); got != 3.5 {
		t.Fatalf("F64 = %g", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round-trip failed")
	}
	if got := r.Uvarint(); got != 1<<40 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d, want MaxUint64", got)
	}
	if got := r.Varint(); got != -(1 << 40) {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Fatalf("Varint = %d, want MinInt64", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Fatalf("String = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %v", got)
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// sources returns a Reader over input for each way a Reader gets its
// window: the slice itself, and io.Readers that return one byte and a
// whole chunk per Read.
func sources(input []byte) map[string]*Reader {
	return map[string]*Reader{
		"bytes":    NewBytesReader(input),
		"one byte": NewReader(iotest.OneByteReader(bytes.NewReader(input))),
		"chunked":  NewReader(bytes.NewReader(input)),
	}
}

// TestPrimitiveRoundTrip round-trips every Writer field through every
// Reader source, and through a Writer that flushes to an io.Writer.
func TestPrimitiveRoundTrip(t *testing.T) {
	var w Writer
	writeFields(&w)
	var sunk bytes.Buffer
	sw := NewWriter(&sunk)
	writeFields(sw)
	if err := sw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sunk.Bytes(), w.Encoded()) {
		t.Fatal("a flushing Writer encoded other bytes than a buffering one")
	}
	for name, r := range sources(w.Encoded()) {
		t.Run(name, func(t *testing.T) { readFields(t, r) })
	}
}

// TestRefillInsideEveryField puts the boundary of the Reader's first
// refill chunk at every byte of the field list, varints included: each
// field must decode the same across it.
func TestRefillInsideEveryField(t *testing.T) {
	var fields Writer
	writeFields(&fields)
	n := len(fields.Encoded())
	for cut := 1; cut < n; cut++ {
		// The pad field's prefix and bytes end cut bytes before chunk.
		pad := chunk - cut - len(binary.AppendUvarint(nil, uint64(chunk)))
		var w Writer
		w.Bytes(make([]byte, pad))
		if got := len(w.Encoded()); got != chunk-cut {
			t.Fatalf("pad ends at %d, want %d", got, chunk-cut)
		}
		writeFields(&w)
		r := NewReader(bytes.NewReader(w.Encoded()))
		if got := r.Bytes(); len(got) != pad {
			t.Fatalf("pad = %d bytes, want %d", len(got), pad)
		}
		readFields(t, r)
	}
}

// TestFlushesInChunks: a Writer with a sink holds at most a chunk (plus
// one field) before it writes, and hands large fields straight through.
func TestFlushesInChunks(t *testing.T) {
	var sunk bytes.Buffer
	w := NewWriter(&sunk)
	for i := 0; i < 3*chunk; i++ {
		w.Uvarint(uint64(i))
		if len(w.Encoded()) > chunk {
			t.Fatalf("window holds %d bytes, want <= %d", len(w.Encoded()), chunk)
		}
	}
	if sunk.Len() == 0 {
		t.Fatal("nothing flushed before Flush")
	}
	big := make([]byte, 2*chunk)
	w.Bytes(big)
	if len(w.Encoded()) != 0 {
		t.Fatalf("window holds %d bytes after a large field", len(w.Encoded()))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewBytesReader(sunk.Bytes())
	for i := 0; i < 3*chunk; i++ {
		if got := r.Uvarint(); got != uint64(i) {
			t.Fatalf("field %d = %d", i, got)
		}
	}
	if got := r.Bytes(); len(got) != len(big) {
		t.Fatalf("large field = %d bytes, want %d", len(got), len(big))
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterKeepsSinkError: a failed sink stops the Writer, and its window
// does not grow with what is written after.
func TestWriterKeepsSinkError(t *testing.T) {
	w := NewWriter(failWriter{})
	for i := 0; i < 4*chunk; i++ {
		w.U64(uint64(i))
	}
	if err := w.Flush(); !errors.Is(err, errSink) {
		t.Fatalf("Flush = %v, want the sink's error", err)
	}
	if len(w.Encoded()) != 0 {
		t.Fatalf("failed writer holds %d bytes", len(w.Encoded()))
	}
}

var errSink = errors.New("sink failed")

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errSink }

func TestHeaderRejectsWrongKind(t *testing.T) {
	var w Writer
	w.Header("other")
	r := NewBytesReader(w.Encoded())
	r.Header("system")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("err = %v, want kind mismatch", err)
	}
}

func TestHeaderRejectsGarbage(t *testing.T) {
	r := NewReader(strings.NewReader("this is not a snapshot at all"))
	r.Header("system")
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad magic", err)
	}
}

// TestTruncatedStreamIsCorrupt cuts the field list at every byte: from
// every source, decoding must fail as corrupt, without a panic.
func TestTruncatedStreamIsCorrupt(t *testing.T) {
	var w Writer
	writeFields(&w)
	full := w.Encoded()
	for cut := 0; cut < len(full); cut++ {
		for name, r := range sources(full[:cut]) {
			r.Header("test")
			r.U16()
			r.U32()
			r.U64()
			r.I64()
			r.F64()
			r.Bool()
			r.Bool()
			r.Uvarint()
			r.Uvarint()
			r.Varint()
			r.Varint()
			r.Int()
			r.Len()
			r.Bytes()
			_ = r.String()
			r.Bytes()
			if err := r.Err(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: cut at %d of %d: err = %v, want ErrCorrupt", name, cut, len(full), err)
			}
		}
	}
}

// TestVarintOverflowIsCorrupt: ten continuation bytes and an eleventh are
// no 64-bit varint.
func TestVarintOverflowIsCorrupt(t *testing.T) {
	input := append(bytes.Repeat([]byte{0xff}, 10), 1)
	for name, r := range sources(input) {
		r.Uvarint()
		if err := r.Err(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "overflows") {
			t.Fatalf("%s: err = %v, want an overflow as ErrCorrupt", name, err)
		}
	}
}

// TestBytesAllocatesOnlyWhatArrives feeds Bytes a field that declares the
// largest legal length but carries five bytes: from every source it must
// fail as corrupt after allocating about one read chunk, not the declared
// 64 MiB.
func TestBytesAllocatesOnlyWhatArrives(t *testing.T) {
	var w Writer
	w.Len(maxChunk)
	input := append(w.Encoded(), "short"...)
	if len(input) > 10 {
		t.Fatalf("input is %d bytes, want at most 10", len(input))
	}
	for name, r := range sources(input) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := r.Bytes()
		runtime.ReadMemStats(&after)
		if got != nil {
			t.Fatalf("%s: Bytes = %d bytes, want nil", name, len(got))
		}
		if err := r.Err(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		const bound = 4 * chunk
		if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
			t.Fatalf("%s: a %d-byte input allocated %d bytes, want <= %d", name, len(input), grew, bound)
		}
	}
}

// TestBytesSpanningChunks round-trips a field several read chunks long.
func TestBytesSpanningChunks(t *testing.T) {
	want := make([]byte, 3*chunk+17)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var w Writer
	w.Bytes(want)
	for name, r := range sources(w.Encoded()) {
		if got := r.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s: Bytes returned %d bytes, want the %d written", name, len(got), len(want))
		}
		r.ExpectEOF()
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestExpectEOFRejectsTrailingBytes(t *testing.T) {
	for name, r := range sources([]byte("x")) {
		r.ExpectEOF()
		if r.Err() == nil {
			t.Fatalf("%s: trailing byte not rejected", name)
		}
	}
}

// TestOffsetCountsDecodedBytes: Offset is the input position of the next
// field, across refills.
func TestOffsetCountsDecodedBytes(t *testing.T) {
	var w Writer
	for i := 0; i < chunk; i++ {
		w.Uvarint(uint64(i))
	}
	var ends []int
	for name, r := range sources(w.Encoded()) {
		for i := 0; i < chunk; i++ {
			r.Uvarint()
			if i%1000 == 0 || i == chunk-1 {
				ends = append(ends, r.Offset())
			}
		}
		if got := r.Offset(); got != len(w.Encoded()) {
			t.Fatalf("%s: Offset = %d at the end of a %d-byte input", name, got, len(w.Encoded()))
		}
	}
	third := len(ends) / 3
	if !slices.Equal(ends[:third], ends[third:2*third]) || !slices.Equal(ends[:third], ends[2*third:]) {
		t.Fatal("sources disagree on field offsets")
	}
}

// TestFieldsAllocationFree: a warm Writer and a Reset Reader move a
// header and every fixed-size field without allocating, and the Writer
// moves strings too.
func TestFieldsAllocationFree(t *testing.T) {
	var w Writer
	var r Reader
	allocs := testing.AllocsPerRun(100, func() {
		w.Reset(w.Encoded()[:0])
		w.Header("test")
		for i := 0; i < 64; i++ {
			w.U16(uint16(i))
			w.U32(uint32(i))
			w.U64(uint64(i))
			w.Bool(i%2 == 0)
			w.Uvarint(uint64(i) << 30)
			w.Int(-i)
			WriteDescriptor(&w, view.Descriptor{ID: view.NodeID(i)})
		}
		w.String("trailer")
		r.Reset(w.Encoded())
		r.Header("test")
		for i := 0; i < 64; i++ {
			r.U16()
			r.U32()
			r.U64()
			r.Bool()
			r.Uvarint()
			r.Int()
			ReadDescriptor(&r)
		}
		r.Len()
		r.take(len("trailer"))
		r.ExpectEOF()
	})
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warm field round trip: %v allocs, want 0", allocs)
	}
}

func TestViewRoundTrip(t *testing.T) {
	var src view.Table
	src.Resize(1)
	v := src.Init(0, 8)
	v.Add(view.Descriptor{ID: 3, Age: 2, Profile: view.Profile{Comp: 1, Index: 4, Size: 9, Key: 77, Epoch: 2}})
	v.Add(view.Descriptor{ID: 9, Age: 0})
	v.Add(view.Descriptor{ID: 1, Age: 65535})

	var w Writer
	WriteView(&w, v)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	var table view.Table
	table.Resize(1)
	r := NewBytesReader(w.Encoded())
	ReadViewInto(r, &table, 0)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	got := table.At(0)
	if got.Cap() != v.Cap() || got.Len() != v.Len() {
		t.Fatalf("cap/len = %d/%d, want %d/%d", got.Cap(), got.Len(), v.Cap(), v.Len())
	}
	for i := 0; i < v.Len(); i++ {
		if got.At(i) != v.At(i) {
			t.Fatalf("entry %d = %+v, want %+v (order is state)", i, got.At(i), v.At(i))
		}
	}
}

// TestReadViewAllocatesOnlyWhatArrives decodes a view that declares the
// largest legal capacity and holds one entry: storage must be sized by the
// entry, with the capacity kept as the view's growth limit.
func TestReadViewAllocatesOnlyWhatArrives(t *testing.T) {
	var w Writer
	w.Len(maxChunk) // capacity
	w.Len(1)        // entries
	WriteDescriptor(&w, view.Descriptor{ID: 5})
	input := w.Encoded()

	var table view.Table
	table.Resize(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewBytesReader(input)
	ReadViewInto(r, &table, 0)
	runtime.ReadMemStats(&after)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if v := table.At(0); v.Cap() != maxChunk || v.Len() != 1 || v.At(0).ID != 5 {
		t.Fatalf("cap/len = %d/%d, want %d/1 holding node 5", v.Cap(), v.Len(), maxChunk)
	}
	const bound = 64 << 10
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("a %d-byte view declaring capacity %d allocated %d bytes, want <= %d", len(input), maxChunk, grew, bound)
	}
}

// TestReadViewRejectsEntryCountPastData decodes a view that declares the
// largest legal entry count and holds one entry: the decoder must fail as
// corrupt after allocating for the entries that arrived (and one arena
// block of 64-entry rows), not for the declared count.
func TestReadViewRejectsEntryCountPastData(t *testing.T) {
	var w Writer
	w.Len(maxChunk) // capacity
	w.Len(maxChunk) // entries
	WriteDescriptor(&w, view.Descriptor{ID: 5})
	input := w.Encoded()

	var table view.Table
	table.Resize(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewBytesReader(input)
	ReadViewInto(r, &table, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", r.Err())
	}
	const bound = 2 << 20
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("a %d-byte view declaring %d entries allocated %d bytes, want <= %d", len(input), maxChunk, grew, bound)
	}
}

// TestReadDescriptorsWithinWindow: a descriptor slice decodes into the
// leading elements of a window that fits it, leaving the rest untouched;
// one descriptor too many fails the reader before any element is written,
// and a cut stream fails it with the descriptors read so far.
func TestReadDescriptorsWithinWindow(t *testing.T) {
	ds := []view.Descriptor{{ID: 3, Age: 1}, {ID: 9, Profile: view.Profile{Comp: 2}}}
	var w Writer
	WriteDescriptors(&w, ds)
	input := w.Encoded()

	marker := view.Descriptor{ID: 77}
	window := []view.Descriptor{marker, marker, marker}
	r := NewBytesReader(input)
	if n := ReadDescriptorsWithin(r, window); n != 2 || r.Err() != nil {
		t.Fatalf("read %d descriptors, err %v; want 2, nil", n, r.Err())
	}
	if !slices.Equal(window, append(slices.Clone(ds), marker)) {
		t.Fatalf("window = %v, want %v then the untouched marker", window, ds)
	}

	small := []view.Descriptor{marker}
	r = NewBytesReader(input)
	if n := ReadDescriptorsWithin(r, small); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("2 descriptors into a 1-wide window: read %d, err %v; want 0, ErrCorrupt", n, r.Err())
	}
	if small[0] != marker {
		t.Fatalf("a rejected slice wrote %v into the window", small[0])
	}

	r = NewBytesReader(input[:len(input)-1])
	if n := ReadDescriptorsWithin(r, window); n != 1 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("cut stream: read %d, err %v; want 1, ErrCorrupt", n, r.Err())
	}
}

// TestAppendFrameKeepsPrefixAndBuffer: a frame read with AppendFrame lands
// behind what dst already holds, reuses dst's array when it is big enough,
// and leaves dst as it was when the frame is bad.
func TestAppendFrameKeepsPrefixAndBuffer(t *testing.T) {
	var stream bytes.Buffer
	for _, p := range []string{"first", "second"} {
		if err := WriteFrame(&stream, 3, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	dst := append(make([]byte, 0, 64), "head:"...)
	kind, out, err := AppendFrame(dst, &stream)
	if err != nil || kind != 3 || string(out) != "head:first" {
		t.Fatalf("AppendFrame = %d, %q, %v", kind, out, err)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("AppendFrame reallocated a buffer that had room")
	}
	if _, out, err = AppendFrame(out[:0], &stream); err != nil || string(out) != "second" {
		t.Fatalf("second frame: %q, %v", out, err)
	}

	var bad bytes.Buffer
	if err := WriteFrame(&bad, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := bad.Bytes()
	raw[len(raw)-1] ^= 1
	if _, out, err := AppendFrame([]byte("head:"), &bad); !errors.Is(err, ErrFrameChecksum) || string(out) != "head:" {
		t.Fatalf("flipped bit: %q, %v; want dst back and ErrFrameChecksum", out, err)
	}
}

// TestFrameTooBigReadsNoPayload: a header that declares one byte more than
// MaxFrame fails with ErrFrameTooBig before the payload is read or its
// buffer allocated, so a corrupt length cannot claim a gigabyte.
func TestFrameTooBigReadsNoPayload(t *testing.T) {
	var hdr [frameHeaderSize]byte
	hdr[0] = 3
	binary.LittleEndian.PutUint32(hdr[1:5], MaxFrame+1)
	const trailer = 16
	stream := bytes.NewReader(append(hdr[:], make([]byte, trailer)...))
	dst := make([]byte, 0, 8)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, out, err := AppendFrame(dst, stream)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
	if stream.Len() != trailer {
		t.Errorf("read %d bytes past the header", trailer-stream.Len())
	}
	if len(out) != 0 || cap(out) != cap(dst) {
		t.Errorf("dst came back as len %d cap %d, want it as given", len(out), cap(out))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a rejected frame allocated %d bytes", grew)
	}
}
