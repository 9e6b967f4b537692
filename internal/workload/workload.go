// Package workload implements the paper's seven benchmarks as real
// persistent data structures driven through the heap.Memory interface:
// five persistent micro-benchmarks widely used in persistent-memory
// work (array, btree, hash, queue, rbtree) and two WHISPER-style
// macro-benchmarks (tpcc, ycsb). Every node access is a simulated
// memory access; every durability point is an explicit Persist
// (CLWB+SFENCE), so the workloads exercise exactly the write/persist
// patterns whose metadata traffic the paper measures.
package workload

import (
	"fmt"
	"sort"

	"nvmstar/internal/heap"
)

// Ctx carries the execution environment of one workload run.
type Ctx struct {
	Heap    *heap.Heap
	Threads int
	rngs    []rng
}

// NewCtx builds a context with per-thread deterministic PRNGs.
func NewCtx(h *heap.Heap, threads int, seed uint64) *Ctx {
	c := &Ctx{Heap: h, Threads: threads, rngs: make([]rng, threads)}
	for i := range c.rngs {
		c.rngs[i] = rng(seed*2654435761 + uint64(i)*0x9e3779b97f4a7c15 + 1)
	}
	return c
}

// Rand returns thread t's next pseudo-random number.
func (c *Ctx) Rand(t int) uint64 { return c.rngs[t].next() }

type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// Workload is one benchmark: Setup builds its persistent structures,
// Step runs one operation on behalf of a thread, Verify checks
// structural consistency afterwards (used by tests; it reads through
// the same simulated memory).
type Workload interface {
	Name() string
	Setup(ctx *Ctx) error
	Step(ctx *Ctx, thread int) error
	Verify(ctx *Ctx) error
}

// factories registers the benchmarks. Scale parameters are the
// per-thread structure sizes: large enough that the metadata working
// set far exceeds both the metadata cache and the ADR bitmap-line
// coverage (the regime the paper evaluates), small enough that a full
// sweep runs in minutes.
var factories = map[string]func() Workload{
	"array":    func() Workload { return newArray(8192) },
	"queue":    func() Workload { return newQueue(4096) },
	"hash":     func() Workload { return newHash(2048, 30000) },
	"btree":    func() Workload { return newBTree(20000) },
	"rbtree":   func() Workload { return newRBTree(12000) },
	"tpcc":     func() Workload { return newTPCC() },
	"ycsb":     func() Workload { return newYCSB(4096) },
	"skiplist": func() Workload { return newSkiplist(12000) },
}

// Names lists the paper's seven workloads in figure order: the five
// micro-benchmarks first, then the macro-benchmarks. Extensions beyond
// the paper's set (see AllNames) are not included so the experiment
// harness reproduces exactly the published matrix.
func Names() []string {
	return []string{"array", "btree", "hash", "queue", "rbtree", "tpcc", "ycsb"}
}

// AllNames lists every registered workload, the paper's set first.
func AllNames() []string {
	return append(Names(), "skiplist")
}

// New creates a workload by name.
func New(name string) (Workload, error) {
	f, ok := factories[name]
	if !ok {
		known := make([]string, 0, len(factories))
		for k := range factories { //detlint:ok names are sorted below
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("workload: unknown %q (have %v)", name, known)
	}
	return f(), nil
}
