package convrt

import (
	"bytes"
	"reflect"
	"testing"
)

// hostileHeaders are well-formed headers whose claimed shape no input of
// their size can hold; Decode must reject both without allocating for the
// claim.
var hostileHeaders = []string{
	"convrt-table/v1\nname \"x\"\nstates 16777216 events 16777216 init 0\n",
	"convrt-table/v1\nname \"x\"\nstates 16777216 events 4096 init 0\n",
}

// FuzzDecodeTable hammers the table decoder — the reader behind quotd's
// <key>.table sidecars and convrt -table — with arbitrary bytes. Invariants:
// Decode never panics, and any table it accepts re-encodes to bytes that
// decode to the same table and re-encode identically (Encode ∘ Decode is a
// normalizing round trip). The committed corpus under testdata/fuzz holds
// the encoded converters of specs/, among them the pruned Fig. 14 converter
// cmd/convrt runs by default; the hostile headers are seeded here.
func FuzzDecodeTable(f *testing.F) {
	for _, h := range hostileHeaders {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(tab)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded table fails to decode: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(tab, back) {
			t.Fatalf("decode(encode(t)) differs from t\n%s", enc)
		}
		if again := Encode(back); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not stable across a round trip:\n%s\n---\n%s", enc, again)
		}
	})
}
