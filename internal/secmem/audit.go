package secmem

import (
	"fmt"

	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/sit"
)

// Violation describes one metadata block whose NVM image fails the
// MAC-chain invariant during an audit.
type Violation struct {
	Node      sit.NodeID
	Addr      uint64
	StoredMAC uint64
	WantMAC   uint64
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("node %v at %#x: stored MAC %#x, expected %#x",
		v.Node, v.Addr, v.StoredMAC, v.WantMAC)
}

// AuditTree sweeps the entire metadata space and returns every node
// whose NVM image is inconsistent with the current effective state of
// its parent (cached copy if resident, else NVM). Nodes whose cached
// copy is authoritative (dirty or clean in the metadata cache) are
// skipped — their NVM image is legitimately stale.
//
// Under strict persistence nothing is ever legitimately stale, so a
// non-empty result pinpoints exactly which blocks an attacker touched
// — the paper's observation that "only the strict persistence schemes
// can locate the attacks" (Section III-F). Under lazy schemes the
// audit is still exact for all uncached metadata and is used by the
// test suite as a global invariant check.
//
// The sweep bypasses access accounting (Peek): an audit is a
// diagnostic pass, not simulated traffic.
func (e *Engine) AuditTree() []Violation {
	var out []Violation
	geo := e.geo
	effCtr := func(id sit.NodeID, slot int) uint64 {
		if geo.IsRoot(id) {
			return e.root.Counters[slot]
		}
		if ent, ok := e.meta.Peek(geo.NodeAddr(id)); ok {
			return ent.Data.Node.Counters[slot]
		}
		line, ok := e.dev.Peek(geo.NodeAddr(id))
		if !ok {
			return 0
		}
		return counter.Decode(line).Counters[slot]
	}
	for level := 0; level < geo.Levels(); level++ {
		for idx := uint64(0); idx < geo.LevelSize(level); idx++ {
			id := sit.NodeID{Level: level, Index: idx}
			addr := geo.NodeAddr(id)
			line, present := e.dev.Peek(addr)
			if ent, cached := e.meta.Peek(addr); cached {
				// A clean cached copy must equal the NVM image: any
				// divergence is tampering with NVM behind the cache's
				// back. A dirty copy is legitimately ahead of NVM. The
				// codec is a bijection, so comparing decoded nodes is
				// comparing lines.
				if !ent.Dirty && present {
					if node := counter.Decode(line); node != ent.Data.Node {
						out = append(out, Violation{Node: id, Addr: addr,
							StoredMAC: node.MACField, WantMAC: ent.Data.Node.MACField})
					}
				}
				continue
			}
			if !present {
				continue
			}
			node := counter.Decode(line)
			parent, slot := geo.Parent(id)
			want := e.NodeMACField(id, node.Counters, effCtr(parent, slot))
			if want != node.MACField {
				out = append(out, Violation{Node: id, Addr: addr, StoredMAC: node.MACField, WantMAC: want})
			}
		}
	}
	return out
}

// AuditData sweeps every written user-data line and returns the
// addresses whose sideband MAC fails against the current effective
// counter. Together with AuditTree this localizes data-side attacks.
func (e *Engine) AuditData() []uint64 {
	var out []uint64
	geo := e.geo
	for addr := uint64(0); addr < geo.DataBytes(); addr += 64 {
		cipher, ok := e.dev.Peek(addr)
		if !ok {
			continue
		}
		cb, slot := geo.CounterBlockOf(addr)
		var ctr uint64
		if ent, cached := e.meta.Peek(geo.NodeAddr(cb)); cached {
			ctr = ent.Data.Node.Counters[slot]
		} else if line, present := e.dev.Peek(geo.NodeAddr(cb)); present {
			ctr = counter.Decode(line).Counters[slot]
		}
		if mac, _ := e.dataMAC.Get(addr / memline.Size); mac != e.DataMACField(addr, cipher, ctr) {
			out = append(out, addr)
		}
	}
	return out
}
