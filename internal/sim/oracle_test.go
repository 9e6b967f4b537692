package sim

import (
	"context"
	"fmt"
	"testing"

	"nvmstar/internal/nvm"
	"nvmstar/internal/workload"
)

// access is one device access of the observation stream.
type access struct {
	kind  nvm.Access
	addr  uint64
	cause nvm.Cause
}

func (a access) String() string {
	kind := [...]string{nvm.AccessRead: "read", nvm.AccessWrite: "write", nvm.AccessOOB: "oob"}[a.kind]
	return fmt.Sprintf("%s %#x (%s)", kind, a.addr, a.cause)
}

// leader queues the reference member's device accesses for every
// follower.
type leader struct{ followers []*follower }

func (l *leader) Observe(ev Event) {
	if ev.Kind != EvAccess {
		return
	}
	for _, f := range l.followers {
		if f.diff == "" {
			f.queue = append(f.queue, access{ev.Access, ev.Addr, ev.Cause})
		}
	}
}

// follower matches a member's device accesses, less its own
// persistence traffic, against the leader's as they arrive. Every
// member sees a front-end access after the members before it, so the
// queue holds at most the leader's accesses for one front-end access.
type follower struct {
	own   func(access) bool // the member's own persistence traffic
	queue []access          // the leader's accesses not yet matched
	n     int               // accesses matched so far
	diff  string            // the first difference, once found
}

func (f *follower) Observe(ev Event) {
	if ev.Kind != EvAccess || f.diff != "" {
		return
	}
	a := access{ev.Access, ev.Addr, ev.Cause}
	if f.own(a) {
		return
	}
	if len(f.queue) == 0 {
		f.diff = fmt.Sprintf("access %d is %v, wb has none", f.n, a)
		return
	}
	if a != f.queue[0] {
		f.diff = fmt.Sprintf("access %d is %v, wb's is %v", f.n, a, f.queue[0])
		return
	}
	f.queue = f.queue[1:]
	f.n++
}

// TestTrafficOracle is the paper's write-friendliness claim (§III,
// Fig. 10) access by access: on the one access stream a wb, star,
// anubis group drives, star's device stream less its recovery-area
// accesses (the bitmap lines) is wb's, and anubis's less its
// shadow-table (mac-cause) writes is wb's, in order, on every workload.
func TestTrafficOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("every workload's set-up is slow")
	}
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			m, err := NewGroup(goldenConfig("wb"), goldenConfig("star"), goldenConfig("anubis"))
			if err != nil {
				t.Fatal(err)
			}
			geo := m.be[1].engine.Geometry()
			raLo, raHi := geo.RABase(), geo.RAL2Addr(geo.RAL2Lines())
			star := &follower{own: func(a access) bool { return a.addr >= raLo && a.addr < raHi }}
			anubis := &follower{own: func(a access) bool { return a.kind == nvm.AccessWrite && a.cause == nvm.CauseMAC }}
			m.be[0].obs = append(m.be[0].obs, &leader{followers: []*follower{star, anubis}})
			m.be[1].obs = append(m.be[1].obs, star)
			m.be[2].obs = append(m.be[2].obs, anubis)
			if _, err := m.RunEach(context.Background(), name, 2000); err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				member string
				*follower
			}{{"star", star}, {"anubis", anubis}} {
				if f.diff == "" && len(f.queue) > 0 {
					f.diff = fmt.Sprintf("ends after %d accesses, wb's next is %v", f.n, f.queue[0])
				}
				if f.diff != "" {
					t.Errorf("%s: %s: %s", name, f.member, f.diff)
				} else if f.n == 0 {
					t.Errorf("%s: %s matched no accesses", name, f.member)
				}
			}
		})
	}
}
