package snap

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"

	"sosf/internal/view"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("test")
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(1<<63 + 17)
	w.I64(-42)
	w.F64(3.5)
	w.Bool(true)
	w.Bool(false)
	w.Uvarint(1 << 40)
	w.Varint(-(1 << 40))
	w.Int(-7)
	w.Len(3)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
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
	if got := r.Varint(); got != -(1 << 40) {
		t.Fatalf("Varint = %d", got)
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
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("other")
	r := NewReader(&buf)
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

func TestTruncatedStreamIsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("test")
	w.U64(7)
	data := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(data))
	r.Header("test")
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("truncated stream decoded without error")
	}
}

// TestBytesAllocatesOnlyWhatArrives feeds Bytes a field that declares the
// largest legal length but carries five bytes: it must fail as corrupt
// after allocating about one read chunk, not the declared 64 MiB.
func TestBytesAllocatesOnlyWhatArrives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(maxChunk)
	w.write([]byte("short"))
	input := buf.Bytes()
	if len(input) > 10 {
		t.Fatalf("input is %d bytes, want at most 10", len(input))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(input))
	got := r.Bytes()
	runtime.ReadMemStats(&after)
	if got != nil {
		t.Fatalf("Bytes = %d bytes, want nil", len(got))
	}
	if err := r.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	const bound = 4 * readChunk
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Fatalf("a %d-byte input allocated %d bytes, want <= %d", len(input), grew, bound)
	}
}

// TestBytesSpanningChunks round-trips a field several read chunks long.
func TestBytesSpanningChunks(t *testing.T) {
	want := make([]byte, 3*readChunk+17)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes(want)
	r := NewReader(&buf)
	if got := r.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("Bytes returned %d bytes, want the %d written", len(got), len(want))
	}
	r.ExpectEOF()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestExpectEOFRejectsTrailingBytes(t *testing.T) {
	r := NewReader(strings.NewReader("x"))
	r.ExpectEOF()
	if r.Err() == nil {
		t.Fatal("trailing byte not rejected")
	}
}

func TestViewRoundTrip(t *testing.T) {
	var src view.Table
	src.Resize(1)
	v := src.Init(0, 8)
	v.Add(view.Descriptor{ID: 3, Age: 2, Profile: view.Profile{Comp: 1, Index: 4, Size: 9, Key: 77, Epoch: 2}})
	v.Add(view.Descriptor{ID: 9, Age: 0})
	v.Add(view.Descriptor{ID: 1, Age: 65535})

	var buf bytes.Buffer
	w := NewWriter(&buf)
	WriteView(w, v)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	var table view.Table
	table.Resize(1)
	r := NewReader(&buf)
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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(maxChunk) // capacity
	w.Len(1)        // entries
	WriteDescriptor(w, view.Descriptor{ID: 5})
	input := buf.Bytes()

	var table view.Table
	table.Resize(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(input))
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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Len(maxChunk) // capacity
	w.Len(maxChunk) // entries
	WriteDescriptor(w, view.Descriptor{ID: 5})
	input := buf.Bytes()

	var table view.Table
	table.Resize(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewReader(bytes.NewReader(input))
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
	kind, out, err := AppendFrame(dst, &stream, 0)
	if err != nil || kind != 3 || string(out) != "head:first" {
		t.Fatalf("AppendFrame = %d, %q, %v", kind, out, err)
	}
	if &out[0] != &dst[:1][0] {
		t.Fatal("AppendFrame reallocated a buffer that had room")
	}
	if _, out, err = AppendFrame(out[:0], &stream, 0); err != nil || string(out) != "second" {
		t.Fatalf("second frame: %q, %v", out, err)
	}

	var bad bytes.Buffer
	if err := WriteFrame(&bad, 3, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := bad.Bytes()
	raw[len(raw)-1] ^= 1
	if _, out, err := AppendFrame([]byte("head:"), &bad, 0); !errors.Is(err, ErrFrameChecksum) || string(out) != "head:" {
		t.Fatalf("flipped bit: %q, %v; want dst back and ErrFrameChecksum", out, err)
	}
}
