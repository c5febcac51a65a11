package workload

import "testing"

// FuzzSeedDecode feeds arbitrary bytes to Decode, as corpus files and
// artifact bundles may hold, with and without the #proto header. Decode must
// never panic, and a decoded seed's encoding must be a fixed point: decoding
// it and encoding again gives the same text.
func FuzzSeedDecode(f *testing.F) {
	f.Add([]byte(NewGenerator(7, 8, 4).NewSeed(50).Encode()), false)
	f.Add([]byte("#proto v1 threads=2\n"+
		"#stream \"get key000\\r\\n\"\n"+
		"#stream not-a-quoted-string\n"+
		"#crash 0 1\n"+
		"#crash 9 0\n"+
		"#crash nope\n"), false)
	f.Add([]byte("#stream \"set key000 0 0 3\\r\\nabc\\r\\n\"\n#crash 0 0\n"), true)
	f.Add([]byte("\n\nget key1\n\n\nset key2 v\n"), false)
	f.Fuzz(func(t *testing.T, b []byte, proto bool) {
		text := string(b)
		if proto {
			text = protoHeader + "\n" + text
		}
		enc := Decode(text, 4).Encode()
		if again := Decode(enc, 4).Encode(); again != enc {
			t.Fatalf("encoding is not a fixed point:\n%q\n%q", enc, again)
		}
	})
}
