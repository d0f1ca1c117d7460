package binx

import (
	"errors"
	"math"
	"testing"
)

func TestReadsBigEndian(t *testing.T) {
	r := NewReader([]byte{
		0x01,
		0x01, 0x02,
		0x01, 0x02, 0x03, 0x04,
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
		0x3f, 0x80, 0x00, 0x00,
		0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		'a', 'b',
	})
	if v := r.U8(); v != 0x01 {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0x0102 {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0x01020304 {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0102030405060708 {
		t.Errorf("U64 = %#x", v)
	}
	if v := r.F32(); v != 1 {
		t.Errorf("F32 = %v", v)
	}
	if v := r.F64(); v != 2 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Take(2); string(v) != "ab" {
		t.Errorf("Take = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestFailureSticks: the first failure is the one reported, every later
// read returns zero, even one the input could have served, and Len reads 0.
func TestFailureSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	r.U32()
	if r.Take(5) != nil {
		t.Fatal("Take past the end returned bytes")
	}
	if r.U8() != 0 || r.U16() != 0 || r.U32() != 0 || r.U64() != 0 || r.Take(0) != nil || r.Copy(1) != nil {
		t.Fatal("a read after a failure returned data")
	}
	if r.Len() != 0 || r.Count(0, 1) != 0 {
		t.Fatal("a failed reader reports unread bytes")
	}
	r.Fail(errors.New("later"))
	if err := r.Done(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Done = %v, want the first failure (truncation)", err)
	}

	domain := errors.New("value out of range")
	r = NewReader([]byte{1, 2, 3, 4})
	r.Fail(domain)
	r.U8()
	if err := r.Done(); !errors.Is(err, domain) {
		t.Fatalf("Done = %v, want %v", err, domain)
	}
}

func TestTakeBounds(t *testing.T) {
	for _, n := range []int{-1, 5, math.MaxInt} {
		r := NewReader([]byte{1, 2, 3, 4})
		if r.Take(n) != nil || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("Take(%d) of 4 bytes: %v", n, r.Err())
		}
	}
	r := NewReader([]byte{1, 2, 3, 4})
	r.U8()
	if r.Take(math.MaxInt) != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Take(MaxInt) past an offset: %v", r.Err())
	}
	r = NewReader([]byte{1, 2, 3, 4})
	if v := r.Take(0); v == nil || len(v) != 0 {
		t.Errorf("Take(0) = %v, want an empty slice", v)
	}
	if c := r.Copy(0); c != nil {
		t.Errorf("Copy(0) = %v, want nil", c)
	}
}

// TestTakeCapsCapacity: appending to one field must not write over the next.
func TestTakeCapsCapacity(t *testing.T) {
	buf := []byte("aaaabbbb")
	r := NewReader(buf)
	a, b := r.Take(4), r.Take(4)
	if cap(a) != 4 || cap(b) != 4 {
		t.Fatalf("caps %d, %d; want 4, 4", cap(a), cap(b))
	}
	_ = append(a, "XXXX"...)
	if string(b) != "bbbb" || string(buf) != "aaaabbbb" {
		t.Fatalf("append to the first field changed the input: %q", buf)
	}
	r = NewReader(buf)
	c := r.Copy(4)
	c[0] = 'Z'
	if buf[0] != 'a' {
		t.Fatal("Copy aliases the input")
	}
}

func TestCount(t *testing.T) {
	r := NewReader(make([]byte, 12))
	if n := r.Count(3, 4); n != 3 || r.Err() != nil {
		t.Fatalf("Count(3, 4) over 12 bytes = %d, %v", n, r.Err())
	}
	if n := r.Count(0, 4); n != 0 || r.Err() != nil {
		t.Fatalf("Count(0, 4) = %d, %v", n, r.Err())
	}
	for _, c := range []struct{ n, width int }{{4, 4}, {-1, 1}, {math.MaxInt, 8}, {1 << 40, 1 << 30}} {
		r := NewReader(make([]byte, 12))
		if n := r.Count(c.n, c.width); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
			t.Errorf("Count(%d, %d) over 12 bytes = %d, %v", c.n, c.width, n, r.Err())
		}
	}
}

func TestDoneReportsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8()
	err := r.Done()
	if !errors.Is(err, ErrTrailing) || err.Error() != "2 trailing bytes" {
		t.Fatalf("Done = %v", err)
	}
	var zero Reader
	if err := zero.Done(); err != nil {
		t.Fatalf("zero Reader: %v", err)
	}
}

// TestForkLooksAhead: a copied Reader reads on without moving the original.
func TestForkLooksAhead(t *testing.T) {
	r := NewReader([]byte{0, 7, 9})
	ahead := r
	if ahead.U16() != 7 {
		t.Fatal("fork read the wrong value")
	}
	if r.U16() != 7 || r.U8() != 9 || r.Done() != nil {
		t.Fatal("fork moved the original")
	}
}
