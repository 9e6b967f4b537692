package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"nvmstar/internal/cache"
	"nvmstar/internal/sim"
	"nvmstar/internal/trace"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	entries := []trace.Entry{
		{Kind: trace.KindLoad, Core: 0, Addr: 0x40, Size: 8},
		{Kind: trace.KindStore, Core: 3, Addr: 0x1000, Size: 64},
		{Kind: trace.KindPersist, Core: 1, Addr: 0x80, Size: 128},
		{Kind: trace.KindFence, Core: 2},
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(entries)) {
		t.Fatalf("count = %d", w.Count())
	}
	got, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("read %d entries", len(got))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nL 0 40 8\n  \nF 1\n"
	got, err := trace.ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("entries = %d", len(got))
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"X 0 40 8\n",
		"L 0 zz 8\n",
		"L 0 40\n",
		"S 0 40 0\n",
		"F\n",
		"L 0 0 9000000000000000000\n", // once a makeslice panic in Replay
		"P 0 0 1048577\n",             // one byte over MaxSize
	} {
		if _, err := trace.ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func machineCfg(scheme string) sim.Config {
	cfg := sim.Default()
	cfg.Cores = 4
	cfg.DataBytes = 16 << 20
	cfg.L1 = cache.Config{SizeBytes: 8 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 32 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 128 << 10, Ways: 8}
	cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
	cfg.Scheme = scheme
	return cfg
}

// TestRecordReplayTrafficMatches records a workload and replays the
// trace on an identical fresh machine: address streams are identical,
// so NVM traffic must match exactly.
func TestRecordReplayTrafficMatches(t *testing.T) {
	cfg := machineCfg("star")
	rec, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	recorder := &trace.Recorder{Inner: rec, CoreFn: rec.CurrentCore, W: tw}
	s, err := rec.NewSessionOn("queue", recorder)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(2000); err != nil {
		t.Fatal(err)
	}
	if recorder.Err != nil {
		t.Fatal(recorder.Err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	recStats := rec.Engine().Device().Stats()

	entries, err := trace.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Replay(rep, rep, entries, cfg.Cores); err != nil {
		t.Fatal(err)
	}
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	repStats := rep.Engine().Device().Stats()
	if recStats.Writes != repStats.Writes {
		t.Fatalf("writes: recorded %d, replayed %d", recStats.Writes, repStats.Writes)
	}
	if recStats.Reads != repStats.Reads {
		t.Fatalf("reads: recorded %d, replayed %d", recStats.Reads, repStats.Reads)
	}
}

// TestReplayAcrossSchemes replays one trace under every scheme — the
// starsim -replay sweep use case — and checks the paper's write ordering.
func TestReplayAcrossSchemes(t *testing.T) {
	cfg := machineCfg("wb")
	m, err := sim.NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	recorder := &trace.Recorder{Inner: m, CoreFn: m.CurrentCore, W: tw}
	s, err := m.NewSessionOn("array", recorder)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StepN(1500); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	entries, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	writes := map[string]uint64{}
	for _, scheme := range []string{"wb", "star", "anubis"} {
		mm, err := sim.NewMachine(machineCfg(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Replay(mm, mm, entries, 4); err != nil {
			t.Fatal(err)
		}
		if mm.Err() != nil {
			t.Fatal(mm.Err())
		}
		writes[scheme] = mm.Engine().Device().Stats().Writes
	}
	if !(writes["wb"] <= writes["star"] && writes["star"] < writes["anubis"]) {
		t.Fatalf("scheme ordering violated on replay: %v", writes)
	}
}

func TestReplayValidatesMaxCore(t *testing.T) {
	m, err := sim.NewMachine(machineCfg("wb"))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Replay(m, m, nil, 0); err == nil {
		t.Fatal("maxCore 0 accepted")
	}
}

// FuzzTraceParse feeds arbitrary text to the reader and replays
// whatever parses onto a small machine: bad input must come back as an
// error, never a panic. Plain go test runs the seed corpus.
func FuzzTraceParse(f *testing.F) {
	for _, seed := range []string{
		"L 0 40 8\nS 3 1000 40\nP 1 80 128\nF 2\n",
		"# a comment\n\nL 0 40 8\n  \nF 1\n",
		"X 0 40 8\n",
		"L 0 zz 8\n",
		"L 0 40\n",
		"S 0 40 0\n",
		"F\n",
		"L 0 0 9000000000000000000\n",
		"S -3 fffffffffffffff0 64\nP 7 ffffffffffffffff 1048576\n",
	} {
		f.Add(seed)
	}
	cfg := sim.Default()
	cfg.Cores = 2
	cfg.DataBytes = 1 << 20
	cfg.L1 = cache.Config{SizeBytes: 1 << 10, Ways: 2}
	cfg.L2 = cache.Config{SizeBytes: 4 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 8 << 10, Ways: 8}
	cfg.MetaCache = cache.Config{SizeBytes: 4 << 10, Ways: 8}
	cfg.Scheme = "star"
	f.Fuzz(func(t *testing.T, in string) {
		entries, err := trace.ReadAll(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range entries {
			if e.Kind != trace.KindFence && (e.Size <= 0 || e.Size > trace.MaxSize) {
				t.Fatalf("entry %d parsed with size %d outside [1, %d]", i, e.Size, trace.MaxSize)
			}
		}
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = trace.Replay(m, m, entries, cfg.Cores)
	})
}
