package nvmstar_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"nvmstar"
	"nvmstar/internal/bmt"
	"nvmstar/internal/cache"
	"nvmstar/internal/memline"
	"nvmstar/internal/simcrypto"
)

// Example shows the minimal crash-recovery cycle: persist data, lose
// power, recover the security metadata with STAR, read back verified
// plaintext.
func Example() {
	sys, err := nvmstar.New(nvmstar.Options{
		Scheme:         "star",
		DataBytes:      16 << 20,
		MetaCacheBytes: 64 << 10,
		Cores:          1,
	})
	if err != nil {
		panic(err)
	}
	sys.Store(0, []byte("hello, persistent world"))
	sys.PersistRange(0, 23)

	sys.Crash()
	rep, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("recovered and verified: %v\n", rep.Verified)
	fmt.Printf("%s\n", sys.Load(0, 23))
	// Output:
	// recovered and verified: true
	// hello, persistent world
}

// ExampleSystem_RunBenchmark runs one of the paper's workloads and
// inspects the measured traffic.
func ExampleSystem_RunBenchmark() {
	sys, err := nvmstar.New(nvmstar.Options{
		Scheme:         "star",
		DataBytes:      16 << 20,
		MetaCacheBytes: 64 << 10,
		Cores:          2,
	})
	if err != nil {
		panic(err)
	}
	res, err := sys.RunBenchmark("queue", 500)
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %d ops, NVM writes > 0: %v\n", res.Ops, res.Dev.Writes > 0)
	// Output:
	// measured 500 ops, NVM writes > 0: true
}

// ExampleSystem_SaveImage persists the machine's non-volatile state
// across "process lifetimes": save after a crash, restore into a fresh
// system, recover, read.
func ExampleSystem_SaveImage() {
	opts := nvmstar.Options{
		Scheme:         "star",
		DataBytes:      16 << 20,
		MetaCacheBytes: 64 << 10,
		Cores:          1,
		Seed:           42, // the restoring system must match
	}
	sys, err := nvmstar.New(opts)
	if err != nil {
		panic(err)
	}
	sys.Store(64, []byte("survives the process"))
	sys.PersistRange(64, 20)
	sys.Crash()

	var image bytes.Buffer
	if err := sys.SaveImage(&image); err != nil {
		panic(err)
	}

	fresh, err := nvmstar.New(opts)
	if err != nil {
		panic(err)
	}
	if err := fresh.RestoreImage(&image); err != nil {
		panic(err)
	}
	if _, err := fresh.Recover(); err != nil {
		panic(err)
	}
	fmt.Printf("%s\n", fresh.Load(64, 20))
	// Output:
	// survives the process
}

// kvStore is a crash-consistent key-value table on secure NVM: one
// 64-byte line per slot, hash-indexed with linear probing.
//
//	0  valid+keyLen (8B): top bit valid, low bits key length
//	8  key (24B)
//	32 value (32B)
type kvStore struct{ sys *nvmstar.System }

const kvSlots, kvKeyMax, kvValueMax = 4096, 24, 32

func kvHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// slot returns the address of key's slot and whether it holds key:
// the first probe that holds key or is empty.
func (kv *kvStore) slot(key string) (uint64, bool) {
	for probe := uint64(0); probe < kvSlots; probe++ {
		addr := (kvHash(key) + probe) % kvSlots * nvmstar.LineSize
		word := binary.LittleEndian.Uint64(kv.sys.Load(addr, 8))
		if word>>63 == 0 {
			return addr, false
		}
		if string(kv.sys.Load(addr+8, int(word&0xff))) == key {
			return addr, true
		}
	}
	panic("kv: table full")
}

// Put stores key=value durably: it persists the payload first and
// publishes the header after, so a crash between the two leaves either
// the old record or a complete new one.
func (kv *kvStore) Put(key, value string) error {
	if len(key) > kvKeyMax || len(value) > kvValueMax {
		return fmt.Errorf("kv: key/value too large")
	}
	addr, _ := kv.slot(key)
	var rec [kvKeyMax + kvValueMax]byte
	copy(rec[:kvKeyMax], key)
	copy(rec[kvKeyMax:], value)
	kv.sys.Store(addr+8, rec[:])
	kv.sys.PersistRange(addr+8, len(rec))
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], 1<<63|uint64(len(key)))
	kv.sys.Store(addr, hdr[:])
	kv.sys.PersistRange(addr, len(hdr))
	return kv.sys.Err()
}

// Get fetches key's value, decrypted and integrity-verified.
func (kv *kvStore) Get(key string) (string, bool, error) {
	addr, ok := kv.slot(key)
	if !ok {
		return "", false, kv.sys.Err()
	}
	val := kv.sys.Load(addr+8+kvKeyMax, kvValueMax)
	return string(bytes.TrimRight(val, "\x00")), true, kv.sys.Err()
}

// Example_kvstore runs an application's own commit protocol on secure
// NVM: a key-value store persists every record before it publishes it,
// loses power, and STAR recovers the security metadata, so every
// record the store committed still decrypts and verifies.
func Example_kvstore() {
	sys, err := nvmstar.New(nvmstar.Options{
		Scheme:         "star",
		DataBytes:      16 << 20,
		MetaCacheBytes: 64 << 10,
		Cores:          1,
	})
	if err != nil {
		panic(err)
	}
	kv := &kvStore{sys: sys}
	const records = 500
	value := func(i int) string { return fmt.Sprintf("balance=%d", i*17) }
	for i := 0; i < records; i++ {
		if err := kv.Put(fmt.Sprintf("user:%04d", i), value(i)); err != nil {
			panic(err)
		}
	}
	fmt.Printf("dirty metadata lines before the crash: %d\n", sys.Engine().MetaCache().DirtyCount())

	sys.Crash()
	rep, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	fmt.Printf("STAR restored %d stale metadata blocks, verified: %v\n", rep.StaleNodes, rep.Verified)

	intact := 0
	for i := 0; i < records; i++ {
		got, ok, err := kv.Get(fmt.Sprintf("user:%04d", i))
		if err != nil {
			fmt.Println("read after recovery:", err)
			break
		}
		if ok && got == value(i) {
			intact++
		}
	}
	fmt.Printf("%d of %d records intact\n", intact, records)
	// Output:
	// dirty metadata lines before the crash: 352
	// STAR restored 352 stale metadata blocks, verified: true
	// 500 of 500 records intact
}

// baselineWrites issues the 3,000 random line writes every baseline
// row of Example_baselines runs, over a 4 MiB data space, and returns
// the distinct addresses written, in ascending order.
func baselineWrites(write func(addr uint64, l memline.Line) error) []uint64 {
	var written []uint64
	x := uint64(5)
	for i := 0; i < 3000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x >> 11 % (4 << 14)) * memline.Size
		var l memline.Line
		l[0] = byte(i)
		if err := write(addr, l); err != nil {
			panic(err)
		}
		written = append(written, addr)
	}
	slices.Sort(written)
	return slices.Compact(written)
}

// Example_baselines executes the paper's §II-E argument. BMT-era
// recovery (Osiris, Triad-NVM) rebuilds a Bonsai Merkle Tree, whose
// nodes are hashes of their children. A SIT node's MAC takes its
// parent's counter as input, so a SIT cannot be rebuilt from its
// leaves: under a plain write-back cache recovery fails and nearly every
// line written before the crash fails verification. STAR recovers the
// same SIT, and every line reads back.
func Example_baselines() {
	for _, b := range []struct {
		name   string
		policy bmt.Policy
	}{
		{"osiris", bmt.PolicyOsiris{Stride: 4}},
		{"triad-nvm", bmt.PolicyTriad{Levels: 1}},
	} {
		e, err := bmt.New(bmt.Config{
			DataBytes: 4 << 20,
			MetaCache: cache.Config{SizeBytes: 32 << 10, Ways: 8},
			Suite:     simcrypto.NewFast(1),
			Policy:    b.policy,
		})
		if err != nil {
			panic(err)
		}
		baselineWrites(e.WriteLine)
		writes := e.Device().Stats().Writes
		e.Crash()
		rep, err := e.Recover()
		if err != nil {
			panic(err)
		}
		fmt.Printf("bmt+%-9s writes/op=%.2f  recovery: %d block scans, %d probe reads, verified=%v\n",
			b.name, float64(writes)/3000, rep.LineReads, rep.ProbeReads, rep.Verified)
	}
	for _, scheme := range []string{"wb", "star"} {
		sys, err := nvmstar.New(nvmstar.Options{
			Scheme: scheme, DataBytes: 4 << 20, MetaCacheBytes: 32 << 10, Cores: 1,
		})
		if err != nil {
			panic(err)
		}
		written := baselineWrites(sys.Engine().WriteLine)
		writes := sys.Engine().Device().Stats().Writes
		sys.Crash()
		rep, err := sys.Recover()
		unreadable := 0
		for _, addr := range written {
			if _, err := sys.Engine().ReadLine(addr); err != nil {
				unreadable++
			}
		}
		fmt.Printf("sit+%-9s writes/op=%.2f  recovery: ", scheme, float64(writes)/3000)
		if err != nil {
			fmt.Printf("FAILS (%v)", err)
		} else {
			fmt.Printf("%d stale nodes, %d line accesses, verified=%v", rep.StaleNodes, rep.LineAccesses(), rep.Verified)
		}
		fmt.Printf("; %d of %d lines unreadable\n", unreadable, len(written))
	}
	// Output:
	// bmt+osiris    writes/op=1.59  recovery: 2048 block scans, 65536 probe reads, verified=true
	// bmt+triad-nvm writes/op=3.00  recovery: 1024 block scans, 0 probe reads, verified=true
	// sit+wb        writes/op=2.83  recovery: FAILS (secmem: scheme does not support recovery); 2906 of 2927 lines unreadable
	// sit+star      writes/op=3.43  recovery: 408 stale nodes, 4506 line accesses, verified=true; 0 of 2927 lines unreadable
}
