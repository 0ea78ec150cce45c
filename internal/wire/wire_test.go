package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint64(0xdeadbeefcafe)
	e.Uint32(42)
	e.Int(7)
	e.Byte(0xab)
	e.Bool(true)
	e.Bool(false)
	e.Fixed([]byte{1, 2, 3})
	e.Bytes([]byte{4, 5})
	e.Bytes(nil)
	e.Zeros(5)

	d := NewDecoder(e.Data())
	if v := d.Uint64(); v != 0xdeadbeefcafe {
		t.Fatalf("Uint64 = %x", v)
	}
	if v := d.Uint32(); v != 42 {
		t.Fatalf("Uint32 = %d", v)
	}
	if v := d.Int(); v != 7 {
		t.Fatalf("Int = %d", v)
	}
	if v := d.Byte(); v != 0xab {
		t.Fatalf("Byte = %x", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round-trip")
	}
	var fixed [3]byte
	d.Fixed(fixed[:])
	if fixed != [3]byte{1, 2, 3} {
		t.Fatalf("Fixed = %v", fixed)
	}
	if b := d.Bytes(); !bytes.Equal(b, []byte{4, 5}) {
		t.Fatalf("Bytes = %v", b)
	}
	if b := d.Bytes(); b != nil {
		t.Fatalf("empty Bytes = %v, want nil", b)
	}
	d.Skip(5)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderErrorSticks(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if v := d.Uint64(); v != 0 {
		t.Fatalf("truncated Uint64 = %d", v)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v", d.Err())
	}
	// Subsequent reads keep returning zero values without advancing.
	if v := d.Byte(); v != 0 {
		t.Fatalf("read after error = %d", v)
	}
	if err := d.Finish(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Finish = %v", err)
	}
}

func TestDecoderTrailing(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	d.Byte()
	if err := d.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Finish = %v", err)
	}
}

func TestBytesHostileLength(t *testing.T) {
	// A length prefix claiming 4 GiB over a 10-byte buffer must fail
	// without allocating.
	var e Encoder
	e.Uint32(0xffffffff)
	e.Fixed(make([]byte, 6))
	d := NewDecoder(e.Data())
	if b := d.Bytes(); b != nil {
		t.Fatalf("hostile Bytes = %d bytes", len(b))
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestCountHostile(t *testing.T) {
	var e Encoder
	e.Uint32(1 << 30)
	d := NewDecoder(e.Data())
	if n := d.Count(100); n != 0 {
		t.Fatalf("hostile Count = %d", n)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v", d.Err())
	}
}

func TestEncoderIntClamps(t *testing.T) {
	var e Encoder
	e.Int(-5)
	d := NewDecoder(e.Data())
	if v := d.Int(); v != 0 {
		t.Fatalf("negative Int encoded as %d", v)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{9, 8, 7, 6}
	if err := WriteFrame(&buf, 3, payload); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5+len(payload) {
		t.Fatalf("frame is %d bytes", buf.Len())
	}
	tag, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 3 || !bytes.Equal(got, payload) {
		t.Fatalf("tag %d payload %v", tag, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, nil); err != nil {
		t.Fatal(err)
	}
	tag, payload, err := ReadFrame(&buf)
	if err != nil || tag != 1 || len(payload) != 0 {
		t.Fatalf("tag %d payload %v err %v", tag, payload, err)
	}
}

func TestReadFrameHostileLength(t *testing.T) {
	// Length prefix far past MaxFrameSize must be rejected before any
	// allocation happens.
	hdr := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Zero-length frames are malformed too (no room for the tag).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, 1, make([]byte, MaxFrameSize)); err == nil {
		t.Fatal("oversized frame written")
	}
}

// TestPoolLendsEmptyEncoders pins the borrowed-buffer contract: whatever
// a previous borrower wrote, Get hands out an empty encoder; what Data()
// returned before Put is what was written; and concurrent borrowers never
// share a buffer. (Which encoder comes back is the pool's business: the
// race detector makes sync.Pool drop a quarter of all Puts.)
func TestPoolLendsEmptyEncoders(t *testing.T) {
	var p Pool
	e := p.Get()
	if len(e.Data()) != 0 {
		t.Fatalf("a fresh pool lent an encoder holding %d bytes", len(e.Data()))
	}
	e.Fixed(bytes.Repeat([]byte{0xAA}, 1<<10))
	e.Uint64(7)
	written := append([]byte(nil), e.Data()...)
	if want := append(bytes.Repeat([]byte{0xAA}, 1<<10), 7, 0, 0, 0, 0, 0, 0, 0); !bytes.Equal(written, want) {
		t.Fatal("Data() before Put is not what was written")
	}
	p.Put(e)
	if len(e.Data()) != 0 {
		t.Fatalf("Put left %d bytes in the encoder", len(e.Data()))
	}
	for i := 0; i < 32; i++ {
		e := p.Get()
		if len(e.Data()) != 0 {
			t.Fatalf("borrow %d: encoder came back holding %d bytes", i, len(e.Data()))
		}
		// A shorter message than the last borrower's: nothing of the old
		// one may show through.
		e.Uint32(uint32(i))
		if got := e.Data(); len(got) != 4 || got[0] != byte(i) || got[1] != 0 {
			t.Fatalf("borrow %d: wrote 4 bytes, Data() is % x", i, got)
		}
		p.Put(e)
	}

	// Reset keeps the buffer: the second fill of the same size allocates
	// nothing.
	var r Encoder
	chunk := make([]byte, 1<<16)
	r.Fixed(chunk)
	if r.Reset(); len(r.Data()) != 0 {
		t.Fatal("Reset left bytes behind")
	}
	if n := testing.AllocsPerRun(10, func() { r.Fixed(chunk); r.Reset() }); n != 0 {
		t.Fatalf("refilling a Reset encoder allocates %v times, want 0", n)
	}
}

// TestPoolConcurrentBorrowers: eight goroutines borrow, fill with their
// own byte, check and return, ten thousand times each; a buffer lent to
// two of them at once shows up as a foreign byte (and to -race as a
// write-write race).
func TestPoolConcurrentBorrowers(t *testing.T) {
	var p Pool
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			for i := 0; i < 10_000; i++ {
				e := p.Get()
				if len(e.Data()) != 0 {
					done <- errors.New("borrowed a non-empty encoder")
					return
				}
				n := 1 + (i*7+g)%300
				for j := 0; j < n; j++ {
					e.Byte(byte(g))
				}
				for _, b := range e.Data() {
					if b != byte(g) {
						done <- errors.New("another borrower wrote into a lent buffer")
						return
					}
				}
				p.Put(e)
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
