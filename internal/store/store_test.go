package store

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func newTestDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDeviceRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.BlockSize = 16
	if _, err := NewDevice(p); err == nil {
		t.Fatal("tiny block size accepted")
	}
	p = DefaultParams()
	p.TransferBytesPerSec = 0
	if _, err := NewDevice(p); err == nil {
		t.Fatal("zero transfer rate accepted")
	}
}

func TestAllocWriteRoundTrip(t *testing.T) {
	d := newTestDevice(t)
	payload := bytes.Repeat([]byte{0xAB}, 2500) // 3 blocks at 1 KB
	ext := d.AllocWrite(payload)
	if ext.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", ext.Blocks)
	}
	if ext.Length != 2500 {
		t.Fatalf("length = %d, want 2500", ext.Length)
	}
	got, err := d.NewSession().ReadExtent(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

// The device holds what was written and nothing more: extents follow each
// other byte for byte while their logical blocks stay whole, and a block
// read returns the extent's bytes of that block, the last one cut short.
func TestAllocWritePacks(t *testing.T) {
	d := newTestDevice(t)
	a := d.AllocWrite(bytes.Repeat([]byte{1}, 1500)) // blocks 0-1
	b := d.AllocWrite(bytes.Repeat([]byte{2}, 10))   // block 2
	if a.Start != 0 || a.Blocks != 2 || a.Off != 0 || b.Start != 2 || b.Blocks != 1 || b.Off != 1500 {
		t.Fatalf("extents a=%+v b=%+v", a, b)
	}
	if got := len(d.Data()); got != 1510 {
		t.Fatalf("device holds %d bytes, want 1510", got)
	}
	if d.Blocks() != 3 || d.SizeBytes() != 3*1024 {
		t.Fatalf("logical size %d blocks, %d bytes", d.Blocks(), d.SizeBytes())
	}
	s := d.NewSession()
	for _, c := range []struct {
		ext  Extent
		j    int
		want []byte
	}{
		{a, 0, bytes.Repeat([]byte{1}, 1024)},
		{a, 1, bytes.Repeat([]byte{1}, 476)},
		{b, 0, bytes.Repeat([]byte{2}, 10)},
	} {
		got, err := s.ReadBlock(c.ext, c.j)
		if err != nil || !bytes.Equal(got, c.want) {
			t.Fatalf("block %d of %+v: %d bytes, %v", c.j, c.ext, len(got), err)
		}
	}
	if st := s.Stats(); st.BlockReads != 3 || st.BytesRead != 3*1024 || st.SeqReads != 2 {
		t.Fatalf("a packed read is charged other than its logical blocks: %+v", st)
	}
}

func TestAllocWriteEmptyStillTakesBlock(t *testing.T) {
	d := newTestDevice(t)
	ext := d.AllocWrite(nil)
	if ext.Blocks != 1 {
		t.Fatalf("empty write allocated %d blocks, want 1", ext.Blocks)
	}
}

func TestSequentialVsRandomAccounting(t *testing.T) {
	d := newTestDevice(t)
	a := d.AllocWrite(bytes.Repeat([]byte{1}, 4096)) // blocks 0-3
	b := d.AllocWrite(bytes.Repeat([]byte{2}, 4096)) // blocks 4-7
	s := d.NewSession()

	// First read: random. Next three: sequential.
	for i := int32(0); i < a.Blocks; i++ {
		if _, err := s.ReadBlock(a, int(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.RandomReads != 1 || st.SeqReads != 3 {
		t.Fatalf("after extent a: random=%d seq=%d, want 1/3", st.RandomReads, st.SeqReads)
	}

	// b starts right after a's last block, so its first read is sequential.
	if _, err := s.ReadBlock(b, 0); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.SeqReads != 4 {
		t.Fatalf("adjacent extent first block not sequential: %+v", st)
	}

	// Jumping back is random.
	if _, err := s.ReadBlock(a, 0); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.RandomReads != 2 {
		t.Fatalf("backward jump not random: %+v", st)
	}
}

func TestSimTimeModel(t *testing.T) {
	p := Params{BlockSize: 1024, Seek: 4 * time.Millisecond, Rotation: 2 * time.Millisecond, TransferBytesPerSec: 1 << 20}
	d := MustDevice(p)
	ext := d.AllocWrite(bytes.Repeat([]byte{1}, 2048))
	s := d.NewSession()
	if _, err := s.ReadExtent(ext); err != nil {
		t.Fatal(err)
	}
	// 1 random (4+2 ms + ~1ms transfer) + 1 sequential (~1ms transfer).
	blockFrac := float64(1024) / float64(1<<20)
	transfer := time.Duration(blockFrac * float64(time.Second))
	want := 6*time.Millisecond + 2*transfer
	got := s.Stats().SimTime
	if got != want {
		t.Fatalf("SimTime = %v, want %v", got, want)
	}
}

func TestNewSessionStartsWithColdHead(t *testing.T) {
	d := newTestDevice(t)
	ext := d.AllocWrite(bytes.Repeat([]byte{1}, 2048))
	if _, err := d.NewSession().ReadExtent(ext); err != nil {
		t.Fatal(err)
	}
	// Reading the block right after another session's last-read one would
	// be sequential on a shared head; a fresh session must charge it as
	// random.
	s := d.NewSession()
	if _, err := s.ReadBlock(ext, 0); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.RandomReads != 1 || st.SeqReads != 0 {
		t.Fatalf("fresh session head not cold: %+v", st)
	}
}

// Sessions are independent: interleaved reads from two sessions must each
// see their own head position and their own counters, and concurrent
// sessions must not race (run with -race to enforce).
func TestSessionsIndependent(t *testing.T) {
	d := newTestDevice(t)
	ext := d.AllocWrite(bytes.Repeat([]byte{7}, 4096)) // blocks 0-3
	s1, s2 := d.NewSession(), d.NewSession()
	for i := int32(0); i < ext.Blocks; i++ {
		if _, err := s1.ReadBlock(ext, int(i)); err != nil {
			t.Fatal(err)
		}
		// s2 jumps around between s1's reads; a shared head would turn
		// s1's sequential reads into random ones.
		if _, err := s2.ReadBlock(ext, int((i*2)%4)); err != nil {
			t.Fatal(err)
		}
	}
	if st := s1.Stats(); st.RandomReads != 1 || st.SeqReads != 3 {
		t.Fatalf("s1 head polluted by s2: %+v", st)
	}
	if st := s2.Stats(); st.BlockReads != 4 {
		t.Fatalf("s2 counters wrong: %+v", st)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.NewSession()
			for i := 0; i < 50; i++ {
				if _, err := s.ReadExtent(ext); err != nil {
					t.Error(err)
					return
				}
			}
			if st := s.Stats(); st.BlockReads != 50*int64(ext.Blocks) {
				t.Errorf("session counted %d block reads", st.BlockReads)
			}
		}()
	}
	wg.Wait()
}

func TestReadOutOfRange(t *testing.T) {
	d := newTestDevice(t)
	if _, err := d.NewSession().ReadBlock(Extent{Blocks: 1, Length: 1}, 0); err == nil {
		t.Fatal("read from empty device succeeded")
	}
	ext := d.AllocWrite([]byte("x"))
	s := d.NewSession()
	if _, err := s.ReadBlock(ext, 5); err == nil {
		t.Fatal("out-of-range block read succeeded")
	}
	for _, bad := range []Extent{
		{Start: 0, Blocks: 9, Length: 1},
		{Start: 0, Blocks: 1, Length: 2},
		{Start: 0, Blocks: 1, Length: 1, Off: 1},
		{Start: 0, Blocks: 1, Length: -1},
	} {
		if _, err := s.ReadExtent(bad); err == nil {
			t.Fatalf("out-of-range extent %+v read succeeded", bad)
		}
		if _, err := s.ReadBlock(bad, 0); err == nil {
			t.Fatalf("block of out-of-range extent %+v read succeeded", bad)
		}
	}
	if st := s.Stats(); st.BlockReads != 0 {
		t.Fatalf("refused reads were charged: %+v", st)
	}
}

func TestStatsSubAndAdd(t *testing.T) {
	a := Stats{BlockReads: 10, RandomReads: 3, SeqReads: 7, BytesRead: 10240, SimTime: time.Second}
	b := Stats{BlockReads: 4, RandomReads: 1, SeqReads: 3, BytesRead: 4096, SimTime: 250 * time.Millisecond}
	diff := a.Sub(b)
	if diff.BlockReads != 6 || diff.RandomReads != 2 || diff.SeqReads != 4 || diff.SimTime != 750*time.Millisecond {
		t.Fatalf("Sub wrong: %+v", diff)
	}
	var total Stats
	total.Add(a)
	total.Add(b)
	if total.BlockReads != 14 || total.SimTime != 1250*time.Millisecond {
		t.Fatalf("Add wrong: %+v", total)
	}
}

func TestCorrupt(t *testing.T) {
	d := newTestDevice(t)
	ext := d.AllocWrite([]byte{0x01, 0x02, 0x03})
	if err := d.Corrupt(ext, 1, 0xFF); err != nil {
		t.Fatal(err)
	}
	got, err := d.NewSession().ReadExtent(ext)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0x02^0xFF {
		t.Fatalf("byte not flipped: %x", got[1])
	}
	if err := d.Corrupt(Extent{Start: 99, Blocks: 1, Length: 1}, 0, 1); err == nil {
		t.Fatal("corrupt out-of-range block accepted")
	}
	if err := d.Corrupt(ext, 3, 1); err == nil {
		t.Fatal("corrupt out-of-range offset accepted")
	}
}
