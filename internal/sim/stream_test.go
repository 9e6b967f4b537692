package sim

import (
	"context"
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
// latency equal the parent's at the fork point. The five schemes run
// as one lock-step group with a recorder on each back end, and each
// member is checked on its own stream and forked out with ForkMember.
func TestObserverStreamInvariants(t *testing.T) {
	schemes := []string{"wb", "strict", "anubis", "phoenix", "star"}
	var cfgs []Config
	for _, scheme := range schemes {
		cfgs = append(cfgs, observeConfig(scheme))
	}
	m, err := NewGroup(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*recorder, len(m.be))
	for i, b := range m.be {
		recs[i] = &recorder{}
		b.obs = append(b.obs, recs[i])
	}
	if _, err := m.RunEach(context.Background(), "hash", 300); err != nil {
		t.Fatal(err)
	}
	for i, scheme := range schemes {
		t.Run(scheme, func(t *testing.T) {
			b, rec := m.be[i], recs[i]
			var sum uint64
			for _, n := range rec.writes {
				sum += n
			}
			if dev := b.engine.Device().Stats().Writes; sum != dev {
				t.Errorf("write events sum to %d, device counted %d", sum, dev)
			}
			if n := rec.writes[nvm.CauseOther]; n != 0 {
				t.Errorf("%d write events carry the untagged cause", n)
			}
			if rec.begins == 0 || rec.begins != rec.ends || rec.depth != 0 || rec.unbalancedEnd {
				t.Errorf("op brackets unbalanced: %d begins, %d ends, depth %d, early end %v",
					rec.begins, rec.ends, rec.depth, rec.unbalancedEnd)
			}

			f := m.ForkMember(i)
			if len(f.be[0].obs) != 1 || f.be[0].obs[0] != f.be[0].observed || f.be[0].observed == b.observed {
				t.Fatalf("fork subscribers = %v, want only its own observatory", f.be[0].obs)
			}
			if !reflect.DeepEqual(f.be[0].observed.attr.breakdown(nil), b.observed.attr.breakdown(nil)) {
				t.Error("fork's attribution differs from the parent's at the fork point")
			}
			if !reflect.DeepEqual(f.LatencySnapshot(), b.observed.lat.breakdown(nil)) {
				t.Error("fork's latency differs from the parent's at the fork point")
			}
			seen := *rec
			if _, err := f.Run("queue", 100); err != nil {
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

	b := a.breakdown(nil)
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

	// A phase delta subtracts the counters of a copy taken before it.
	before := a
	before.counts = append([]uint64(nil), a.counts...)
	write(3, nvm.CauseData) // bank 3
	a.observe(Event{Kind: EvAccess, Access: nvm.AccessOOB, Cause: nvm.CauseADRFlush})
	d := a.breakdown(&before)
	if d.Total != 1 || !reflect.DeepEqual(d.Causes[nvm.CauseData].Banks, []uint64{0, 0, 0, 1}) || d.CauseWrites("tree-node") != 0 {
		t.Errorf("delta = %+v, want one data write in bank 3", d)
	}
	if want := []nvm.CauseCount{{Cause: "adr-flush", Writes: 1}}; !reflect.DeepEqual(d.OOB, want) {
		t.Errorf("delta OOB = %+v, want %+v", d.OOB, want)
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
	before := m.be[0].observed.clone()
	writes := m.Engine().Device().Stats().Writes
	m.Crash()
	delta := m.be[0].observed.attr.breakdown(&before.attr)
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
	if m.be[0].observed != nil || len(m.be[0].obs) != 0 || res.WriteBreakdown != nil || res.Latency != nil {
		t.Fatalf("observe-off machine observes: observatory %v, %d subscribers, results %+v",
			m.be[0].observed, len(m.be[0].obs), res)
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
	atFork := m.be[0].observed.attr.breakdown(nil)
	f := m.Fork()
	if _, err := f.Run("hash", 200); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.be[0].observed.attr.breakdown(nil), atFork) {
		t.Fatal("fork writes leaked into the parent")
	}
	forkNow := f.be[0].observed.attr.breakdown(nil)
	if err := s.StepN(200); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.be[0].observed.attr.breakdown(nil), forkNow) {
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
	if m.be[0].observed == nil || len(m.be[0].obs) != 1 {
		t.Fatal("Reset disabled the observatory")
	}
	if b := m.be[0].observed.attr.breakdown(nil); b.Total != 0 || len(b.OOB) != 0 {
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
