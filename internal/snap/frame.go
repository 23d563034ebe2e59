package snap

// Wire frames: the length-prefixed, checksummed envelope distributed runs
// use to move snap-codec payloads (handshakes, plan-record shards, barrier
// aggregates) over a byte stream. A frame is deliberately dumb — kind tag,
// length, CRC, payload — so the stream stays recoverable by construction:
// a reader always knows how many bytes to consume, a flipped bit fails the
// checksum instead of desynchronizing the codec, and a torn connection
// surfaces as ErrFrameTruncated on the very next read instead of a hang.
//
// Layout (all little-endian):
//
//	kind    u8
//	length  u32  payload byte count
//	crc     u32  CRC-32C (Castagnoli) of the payload
//	payload length bytes
//
// The payload is typically a snap Writer stream, but the frame layer does
// not care; it moves opaque bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"sosf/internal/view"
)

// Frame-layer errors. Wrapped with detail by ReadFrame; match with
// errors.Is.
var (
	// ErrFrameTruncated marks a frame cut short by a closed or dead peer.
	ErrFrameTruncated = errors.New("snap: truncated frame")
	// ErrFrameChecksum marks a payload whose CRC does not match its header.
	ErrFrameChecksum = errors.New("snap: frame checksum mismatch")
	// ErrFrameTooBig marks a frame whose declared length exceeds MaxFrame
	// (a desynchronized or hostile stream).
	ErrFrameTooBig = errors.New("snap: frame exceeds size limit")
)

// frameHeaderSize is kind (1) + length (4) + crc (4).
const frameHeaderSize = 9

// MaxFrame is the frame size limit: generous enough for the plan
// records of a million-slot shard, small enough to keep a corrupted length
// field from provoking a giant allocation.
const MaxFrame = 1 << 30

// castagnoli is the CRC-32C table shared by all frame writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFrame writes one frame. The payload is not retained.
func WriteFrame(w io.Writer, kind uint8, payload []byte) error {
	var hdr [frameHeaderSize]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame of at most MaxFrame payload bytes. A cleanly
// closed stream returns io.EOF before the first header byte; anything torn
// mid-frame is ErrFrameTruncated.
func ReadFrame(r io.Reader) (kind uint8, payload []byte, err error) {
	return AppendFrame(nil, r)
}

// AppendFrame reads one frame like ReadFrame and appends its payload to
// dst, growing dst only when its capacity falls short; the payload is
// out[len(dst):]. A caller that reads one frame per barrier into the [:0]
// of the previous result keeps a single buffer for the whole run. On error
// out is dst, unextended.
func AppendFrame(dst []byte, r io.Reader) (kind uint8, out []byte, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, dst, io.EOF
		}
		return 0, dst, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, dst, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	kind = hdr[0]
	n := binary.LittleEndian.Uint32(hdr[1:5])
	sum := binary.LittleEndian.Uint32(hdr[5:9])
	if n > MaxFrame {
		return 0, dst, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooBig, n, MaxFrame)
	}
	out = slices.Grow(dst, int(n))[:len(dst)+int(n)]
	payload := out[len(dst):]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, dst, fmt.Errorf("%w: %v", ErrFrameTruncated, err)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return 0, dst, fmt.Errorf("%w: got %#x, header says %#x", ErrFrameChecksum, got, sum)
	}
	return kind, out, nil
}

// WriteDescriptors encodes a descriptor slice (length-prefixed), the plan
// payload building block shared by the distributed plan codecs.
func WriteDescriptors(w *Writer, ds []view.Descriptor) {
	w.Len(len(ds))
	for _, d := range ds {
		WriteDescriptor(w, d)
	}
}

// ReadDescriptorsWithin decodes a slice written by WriteDescriptors into
// the leading elements of dst, a fixed window such as a plan payload's,
// and returns how many it read. A slice longer than dst fails the reader
// before anything is read, so a corrupt count can neither overrun the
// window nor claim memory; on a corrupt stream the reader's sticky error
// is set and the count read so far is returned.
func ReadDescriptorsWithin(r *Reader, dst []view.Descriptor) int {
	n := r.Len()
	if r.err == nil && n > len(dst) {
		r.failf("%d descriptors exceed the %d-descriptor window", n, len(dst))
	}
	for i := 0; i < n; i++ {
		d := ReadDescriptor(r)
		if r.err != nil {
			return i
		}
		dst[i] = d
	}
	return n
}
