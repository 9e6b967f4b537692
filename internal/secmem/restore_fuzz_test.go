package secmem_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/simcrypto"
)

// fuzzEngine builds the small engine FuzzRestoreNonVolatile restores
// into.
func fuzzEngine(t testing.TB, scheme string) *secmem.Engine {
	t.Helper()
	e, err := secmem.New(secmem.Config{
		DataBytes: 1 << 16,
		MetaCache: cache.Config{SizeBytes: 4 << 10, Ways: 8},
		Suite:     simcrypto.NewFast(2024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return withScheme(t, e, scheme)
}

// crashedImage runs a short workload on a fuzz engine, crashes it and
// returns its SaveNonVolatile image.
func crashedImage(t testing.TB, scheme string) []byte {
	t.Helper()
	e := fuzzEngine(t, scheme)
	runWorkload(t, e, 20, 915)
	e.Crash()
	return saved(t, e)
}

// wearRecordImage is an engine image of a device holding one line
// record per lineAddrs entry (all zero) and one wear record far past
// the device's capacity, which restore refuses: the device keeps no
// wear.
func wearRecordImage(capacity uint64, lineAddrs ...uint64) []byte {
	var b bytes.Buffer
	put := func(v uint64) { _ = binary.Write(&b, binary.LittleEndian, v) }
	b.WriteString("NVMSECM1") // engine magic
	b.WriteString("NVMSTAR1") // device magic
	put(capacity)
	put(uint64(len(lineAddrs)))
	for _, a := range lineAddrs {
		put(a)
		b.Write(make([]byte, memline.Size))
	}
	put(1) // one wear record ...
	put(1 << 40)
	put(1)
	put(0)                              // no data MACs
	b.Write(make([]byte, memline.Size)) // root register
	return b.Bytes()
}

// saved returns e's SaveNonVolatile image.
func saved(t testing.TB, e *secmem.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.SaveNonVolatile(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestoreNonVolatile feeds arbitrary bytes to RestoreNonVolatile
// on a star engine (which has registers) and a wb engine (which has
// none), each holding a crashed workload's state: it must return an
// error or succeed, never panic, and an image it refuses must leave
// the engine's non-volatile state byte-identical.
func FuzzRestoreNonVolatile(f *testing.F) {
	f.Add(crashedImage(f, "star"))
	f.Add(crashedImage(f, "wb"))
	f.Add(wearRecordImage(fuzzEngine(f, "wb").Geometry().TotalBytes()))
	f.Fuzz(func(t *testing.T, img []byte) {
		for _, scheme := range []string{"star", "wb"} {
			e := fuzzEngine(t, scheme)
			runWorkload(t, e, 20, 916)
			e.Crash()
			before := saved(t, e)
			if err := e.RestoreNonVolatile(bytes.NewReader(img)); err != nil {
				if !bytes.Equal(saved(t, e), before) {
					t.Fatalf("%s: refused image (%v) changed the engine", scheme, err)
				}
			}
		}
	})
}
