package authtext

import (
	"os"
	"testing"
)

// FuzzClientExport feeds hostile bytes to both export readers: the blob a
// user imports (NewClientFromExport) and the one a client advances to
// (AdvanceExport, on a bare client and on a shard set's). Exports travel
// out of band from an untrusted channel, so neither may panic; whatever
// they accept has passed the signature checks the other tests pin.
func FuzzClientExport(f *testing.F) {
	atcx, err := os.ReadFile("testdata/atcx-tnra-cmht.bin")
	if err != nil {
		f.Fatal(err)
	}
	set, err := NewShardedOwner(shardedTestDocs(), 2, WithFastSigner([]byte("fuzz-export")), WithSingletonTerms())
	if err != nil {
		f.Fatal(err)
	}
	atsx, err := set.Client().Export()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(atcx)
	f.Add(atsx)
	f.Add(atcx[:len(atcx)/2])
	f.Add(atsx[:len(atsx)/2])
	f.Add([]byte("ATCX"))
	f.Add([]byte("ATSX\x00\x01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		NewClientFromExport(b)
		for _, seed := range [][]byte{atcx, atsx} {
			c, err := NewClientFromExport(seed)
			if err != nil {
				t.Fatal(err)
			}
			c.AdvanceExport(b)
		}
	})
}
