package sim

import (
	"reflect"
	"testing"

	"nvmstar/internal/memline"
	"nvmstar/internal/nvm"
)

// recorder is a fake Observer that checks the stream as it arrives:
// write accesses tallied by cause, op brackets balanced.
type recorder struct {
	writes        [nvm.NumCauses]uint64
	begins, ends  int
	depth         int
	unbalancedEnd bool
}

func (r *recorder) Observe(ev Event) {
	switch ev.Kind {
	case EvAccess:
		if ev.Access == nvm.AccessWrite {
			r.writes[ev.Cause]++
		}
	case EvOpBegin:
		r.begins++
		r.depth++
	case EvOpEnd:
		r.ends++
		r.depth--
		if r.depth < 0 {
			r.unbalancedEnd = true
		}
	}
}

// TestObserverStreamInvariants pins the stream's contract across every
// scheme: write access events summed by cause equal the device's write
// count and none is untagged, every op begin has its op end, a fork
// carries no attached subscriber, and a fork's built-in attribution and
// latency equal the parent's at the fork point.
func TestObserverStreamInvariants(t *testing.T) {
	for _, scheme := range []string{"wb", "strict", "anubis", "phoenix", "star"} {
		t.Run(scheme, func(t *testing.T) {
			m, err := NewMachine(observeConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			rec := &recorder{}
			m.Attach(rec)
			if _, err := m.Run("hash", 300); err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, n := range rec.writes {
				sum += n
			}
			if dev := m.Engine().Device().Stats().Writes; sum != dev {
				t.Errorf("write events sum to %d, device counted %d", sum, dev)
			}
			if n := rec.writes[nvm.CauseOther]; n != 0 {
				t.Errorf("%d write events carry the untagged cause", n)
			}
			if rec.begins == 0 || rec.begins != rec.ends || rec.depth != 0 || rec.unbalancedEnd {
				t.Errorf("op brackets unbalanced: %d begins, %d ends, depth %d, early end %v",
					rec.begins, rec.ends, rec.depth, rec.unbalancedEnd)
			}

			f := m.Fork()
			if len(f.obs) != 1 || f.obs[0] != f.observed || f.observed == m.observed {
				t.Fatalf("fork subscribers = %v, want only its own observatory", f.obs)
			}
			if !reflect.DeepEqual(f.observed.attr.breakdown(), m.observed.attr.breakdown()) {
				t.Error("fork's attribution differs from the parent's at the fork point")
			}
			if !reflect.DeepEqual(f.LatencySnapshot(), m.LatencySnapshot()) {
				t.Error("fork's latency differs from the parent's at the fork point")
			}
			seen := *rec
			if _, err := f.Run("hash", 100); err != nil {
				t.Fatal(err)
			}
			if *rec != seen {
				t.Error("the parent's attached subscriber observed the fork")
			}
		})
	}
}

// TestAttributionPerCausePerBank checks the attribution subscriber's
// per-cause × per-bank accounting against hand-fed write events.
func TestAttributionPerCausePerBank(t *testing.T) {
	a := newAttribution(4)
	write := func(line uint64, c nvm.Cause) {
		a.observe(Event{Kind: EvAccess, Access: nvm.AccessWrite, Addr: line * memline.Size, Cause: c})
	}
	write(0, nvm.CauseData)     // bank 0
	write(1, nvm.CauseData)     // bank 1
	write(5, nvm.CauseCounter)  // bank 1
	write(2, nvm.CauseTreeNode) // bank 2
	write(2, nvm.CauseTreeNode) // bank 2 again
	a.observe(Event{Kind: EvAccess, Access: nvm.AccessRead, Addr: 0})
	a.observe(Event{Kind: EvOpBegin})

	b := a.breakdown()
	if b.Total != 5 || b.Banks != 4 || len(b.Causes) != int(nvm.NumCauses) {
		t.Fatalf("shape: total=%d banks=%d causes=%d", b.Total, b.Banks, len(b.Causes))
	}
	for cause, want := range map[string]uint64{"data": 2, "counter": 1, "tree-node": 2, "other": 0} {
		if got := b.CauseWrites(cause); got != want {
			t.Errorf("%s writes = %d, want %d", cause, got, want)
		}
	}
	if got := b.Causes[nvm.CauseData].Banks; !reflect.DeepEqual(got, []uint64{1, 1, 0, 0}) {
		t.Errorf("data per-bank = %v, want [1 1 0 0]", got)
	}
	if got := b.Causes[nvm.CauseTreeNode].Banks[2]; got != 2 {
		t.Errorf("tree-node bank 2 = %d, want 2", got)
	}
}

// TestAttributionOOBTallies checks that out-of-band stores are tallied
// per cause apart from the counted writes, on a STAR machine whose
// crash flushes its ADR bitmap lines out of band.
func TestAttributionOOBTallies(t *testing.T) {
	m, err := NewMachine(observeConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUnverified("hash", 400); err != nil {
		t.Fatal(err)
	}
	before := m.observed.attr.breakdown()
	writes := m.Engine().Device().Stats().Writes
	m.Crash()
	delta := m.observed.attr.breakdown().Sub(before)
	if delta.Total != 0 || m.Engine().Device().Stats().Writes != writes {
		t.Fatalf("the crash flush counted writes: %+v", delta)
	}
	if len(delta.OOB) != 1 || delta.OOB[0].Cause != "adr-flush" || delta.OOB[0].Writes == 0 {
		t.Fatalf("OOB = %+v, want one nonzero adr-flush entry", delta.OOB)
	}
}

// TestAttributionDisabledIsNil pins the disabled state: without
// Config.Observe the machine has no observatory and its Results carry
// neither breakdown.
func TestAttributionDisabledIsNil(t *testing.T) {
	m, err := NewMachine(goldenConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("hash", 100)
	if err != nil {
		t.Fatal(err)
	}
	if m.observed != nil || len(m.obs) != 0 || res.WriteBreakdown != nil || res.Latency != nil {
		t.Fatalf("observe-off machine observes: observatory %v, %d subscribers, results %+v",
			m.observed, len(m.obs), res)
	}
}

// TestAttributionForkIndependence checks that a fork starts from the
// parent's counts and that neither side's later writes reach the other.
func TestAttributionForkIndependence(t *testing.T) {
	m, err := NewMachine(observeConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.NewSession("hash")
	if err != nil {
		t.Fatal(err)
	}
	atFork := m.observed.attr.breakdown()
	f := m.Fork()
	if _, err := f.Run("hash", 200); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.observed.attr.breakdown(), atFork) {
		t.Fatal("fork writes leaked into the parent")
	}
	forkNow := f.observed.attr.breakdown()
	if err := s.StepN(200); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.observed.attr.breakdown(), forkNow) {
		t.Fatal("parent writes leaked into the fork")
	}
	if forkNow.Total <= atFork.Total || forkNow.CauseWrites("data") < atFork.CauseWrites("data") {
		t.Fatalf("fork did not continue from the parent's counts: %d then %d", atFork.Total, forkNow.Total)
	}
}

// TestAttributionResetKeepsEnablement checks that Reset zeroes the
// observatory in place rather than dropping it.
func TestAttributionResetKeepsEnablement(t *testing.T) {
	m, err := NewMachine(observeConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunUnverified("hash", 200); err != nil {
		t.Fatal(err)
	}
	m.Crash() // out-of-band stores too
	m.Reset(1)
	if m.observed == nil || len(m.obs) != 1 {
		t.Fatal("Reset disabled the observatory")
	}
	if b := m.observed.attr.breakdown(); b.Total != 0 || len(b.OOB) != 0 {
		t.Fatalf("Reset left counts behind: %+v", b)
	}
}

// TestObservedStorePersistZeroAllocs gates the observed hot path: with
// the observatory on, a Store + Persist pair allocates nothing.
func TestObservedStorePersistZeroAllocs(t *testing.T) {
	m, err := NewMachine(observeConfig("star"))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		addr := uint64(i%4096) * memline.Size
		buf[0] = byte(i)
		i++
		m.Store(addr, buf)
		m.Persist(addr, len(buf))
	})
	if allocs != 0 || m.Err() != nil {
		t.Fatalf("observed Store+Persist: %v allocs/op (err %v), want 0", allocs, m.Err())
	}
}
