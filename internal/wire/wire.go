// Package wire is the canonical binary codec for every Algorand message
// in this repository: transactions, votes, certificates, blocks, block
// proposal messages and the gossip envelopes of internal/node.
//
// The paper's evaluation quantities (Figures 5-8) are functions of
// message bytes on the wire, so there must be exactly one byte layout
// per type. This package enforces that discipline:
//
//   - Encoder is an append-style writer producing a deterministic
//     encoding: fixed-width little-endian integers, raw fixed-size
//     arrays, and u32-length-prefixed variable byte strings. No
//     reflection, no type information in the stream, no map iteration.
//   - Decoder is the error-accumulating inverse. It never panics on
//     malformed input: every read is bounds-checked against the buffer,
//     every length prefix is validated against the bytes that remain
//     before anything is allocated, and the first failure sticks.
//   - Frames (WriteFrame/ReadFrame) wrap an encoded message for stream
//     transports: a u32 length prefix followed by a one-byte type tag
//     and the payload.
//
// Types opt in by implementing Marshaler/Unmarshaler; their WireSize
// methods must equal len(Encode(m)) exactly (asserted by the universal
// round-trip test), so the simulator's bandwidth model, storage
// accounting and the real TCP transport all count the same bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Marshaler is a type with a canonical wire encoding.
type Marshaler interface {
	EncodeTo(e *Encoder)
}

// Unmarshaler is a type that can reconstruct itself from its canonical
// wire encoding.
type Unmarshaler interface {
	DecodeFrom(d *Decoder)
}

// Encode returns m's canonical encoding.
func Encode(m Marshaler) []byte {
	var e Encoder
	m.EncodeTo(&e)
	return e.Data()
}

// Decode reconstructs m from a canonical encoding produced by Encode,
// requiring that every byte is consumed.
func Decode(data []byte, m Unmarshaler) error {
	d := NewDecoder(data)
	m.DecodeFrom(d)
	return d.Finish()
}

// Encoder builds a deterministic binary encoding by appending to an
// internal buffer. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoderSize returns an encoder with capacity preallocated.
func NewEncoderSize(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Data returns the bytes encoded so far.
func (e *Encoder) Data() []byte { return e.buf }

// Reset empties the encoder and keeps its buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Pool lends empty encoders for bytes built only to be hashed or written
// and dropped before the call returns: nobody may hold Data() past Put.
// A package declares one per size class it uses, so a block-sized buffer
// is never handed to a 200-byte preimage. The zero value is ready to use.
type Pool struct{ p sync.Pool }

// Get borrows an empty encoder.
func (p *Pool) Get() *Encoder {
	if e, ok := p.p.Get().(*Encoder); ok {
		return e
	}
	return new(Encoder)
}

// Put empties e and gives it back.
func (p *Pool) Put(e *Encoder) {
	e.Reset()
	p.p.Put(e)
}

// AppendUint64 is the codec's 64-bit integer in append form, for a
// fixed-size preimage built in the caller's own (stack) buffer: what an
// Encoder holds is on the heap, because it is written through a pointer.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendBytes is the codec's length-prefixed byte string in append form
// (see AppendUint64).
func AppendBytes(b, v []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
}

// Uint64 appends a little-endian 64-bit integer.
func (e *Encoder) Uint64(v uint64) {
	e.buf = AppendUint64(e.buf, v)
}

// Uint32 appends a little-endian 32-bit integer.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int appends a non-negative Go int as a u32 (node ids, counts and
// bounded lengths; values outside [0, 2³²) are a programming error and
// are clamped into range so the encoding stays well-formed).
func (e *Encoder) Int(v int) {
	if v < 0 {
		v = 0
	}
	if uint64(v) > 0xffffffff {
		v = 0xffffffff
	}
	e.Uint32(uint32(v))
}

// Byte appends one byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Fixed appends a fixed-size field raw, with no length prefix (hashes,
// public keys, VRF outputs — anything whose size is part of the type).
func (e *Encoder) Fixed(b []byte) { e.buf = append(e.buf, b...) }

// Bytes appends a variable-length byte string with a u32 length prefix
// (signatures, sortition proofs).
func (e *Encoder) Bytes(b []byte) {
	e.Int(len(b))
	e.buf = append(e.buf, b...)
}

// Zeros appends n zero bytes (materialized block payload padding).
func (e *Encoder) Zeros(n int) {
	if n <= 0 {
		return
	}
	e.buf = append(e.buf, make([]byte, n)...)
}

// ErrTruncated is reported when the input ends before a field does.
var ErrTruncated = errors.New("wire: truncated input")

// ErrTrailing is reported by Finish when input bytes remain unconsumed.
var ErrTrailing = errors.New("wire: trailing bytes")

// Decoder consumes a canonical encoding. All reads are bounds-checked;
// after the first error every subsequent read returns zero values, so
// DecodeFrom implementations can decode straight through and check
// Err/Finish once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{buf: data} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns how many bytes are left to consume.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Fail records an error (used by DecodeFrom implementations for
// semantic validation, e.g. an unknown type tag).
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Finish returns an error if decoding failed or input bytes remain.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d of %d bytes unconsumed", ErrTrailing, len(d.buf)-d.off, len(d.buf))
	}
	return nil
}

// take reserves n bytes of input, or fails.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.buf)-d.off {
		d.Fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, len(d.buf)-d.off))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads a little-endian 64-bit integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uint32 reads a little-endian 32-bit integer.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int reads a u32-encoded Go int.
func (d *Decoder) Int() int { return int(d.Uint32()) }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean; any nonzero byte is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Fixed fills dst from the input with no length prefix.
func (d *Decoder) Fixed(dst []byte) {
	b := d.take(len(dst))
	if b != nil {
		copy(dst, b)
	}
}

// Bytes reads a u32-length-prefixed byte string into a fresh slice. A
// zero length decodes as nil so optional fields (unsigned messages, nil
// proofs) round-trip exactly. The length is validated against the
// remaining input before any allocation, so hostile prefixes cannot
// force large allocations.
func (d *Decoder) Bytes() []byte {
	n := d.Int()
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// Count reads a u32 element count for a repeated field and validates
// count*minElemSize against the remaining input, so a hostile count
// cannot force a huge preallocation before the truncation is noticed.
func (d *Decoder) Count(minElemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if minElemSize < 1 {
		minElemSize = 1
	}
	if n < 0 || n > d.Remaining()/minElemSize {
		d.Fail(fmt.Errorf("%w: count %d exceeds remaining input", ErrTruncated, n))
		return 0
	}
	return n
}

// Skip discards n bytes of input (materialized padding).
func (d *Decoder) Skip(n int) { d.take(n) }

// --- Frames -----------------------------------------------------------------

// MaxFrameSize bounds a frame read from an untrusted stream: 32 MiB
// comfortably fits the 10 MB blocks of the paper's §10.2 throughput
// experiment plus certificates, and caps what a hostile peer can make
// us buffer.
const MaxFrameSize = 32 << 20

// WriteFrame writes one length-prefixed, type-tagged frame: a u32
// little-endian length covering the tag byte and payload, then the tag,
// then the payload.
func WriteFrame(w io.Writer, tag byte, payload []byte) error {
	if len(payload)+1 > MaxFrameSize {
		return fmt.Errorf("wire: frame of %d bytes exceeds MaxFrameSize", len(payload)+1)
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = tag
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame, enforcing
// MaxFrameSize before allocating.
func ReadFrame(r io.Reader) (tag byte, payload []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	body := make([]byte, n)
	if _, err = io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}
