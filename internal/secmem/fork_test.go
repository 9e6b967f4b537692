package secmem_test

import (
	"reflect"
	"testing"

	"nvmstar/internal/counter"
	"nvmstar/internal/memline"
	"nvmstar/internal/secmem"
	"nvmstar/internal/sit"
)

// cachedNodes returns every node resident in e's metadata cache.
func cachedNodes(e *secmem.Engine) map[sit.NodeID]counter.Node {
	out := make(map[sit.NodeID]counter.Node)
	geo := e.Geometry()
	for level := 0; level < geo.Levels(); level++ {
		for idx := uint64(0); idx < geo.LevelSize(level); idx++ {
			id := sit.NodeID{Level: level, Index: idx}
			if node, _, _, ok := e.CachedNode(id); ok {
				out[id] = node
			}
		}
	}
	return out
}

// TestEngineForkIsIndependent forks an engine mid-run and keeps writing
// on the parent, concurrently with reads of the clone: the clone's
// cached nodes, its empty audit and its reads must not move. The
// metadata cache holds decoded nodes edited in place, so a fork that
// shared any of that storage would show the parent's bumps here (and,
// under -race, as a data race).
func TestEngineForkIsIndependent(t *testing.T) {
	for _, scheme := range []string{"star", "anubis"} {
		t.Run(scheme, func(t *testing.T) {
			e := newEngine(t, scheme, 1<<20, 16<<10)
			expect := runWorkload(t, e, 3000, 913)
			clone := e.Fork()
			before := cachedNodes(clone)
			if len(before) == 0 {
				t.Fatal("no cached nodes at the fork point")
			}
			if v := clone.AuditTree(); len(v) != 0 {
				t.Fatalf("clone audit at the fork point: %v", v)
			}

			done := make(chan error, 1)
			go func() {
				lines := e.Geometry().DataBytes() / memline.Size
				for i := uint64(0); i < 3000; i++ {
					addr := (i * 7919 % lines) * memline.Size
					if err := e.WriteLine(addr, lineFor(addr, 1<<20+i)); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			during := cachedNodes(clone)
			if err := <-done; err != nil {
				t.Fatalf("parent write: %v", err)
			}
			if !reflect.DeepEqual(during, before) {
				t.Fatal("clone's cached nodes changed while the parent wrote")
			}
			if after := cachedNodes(clone); !reflect.DeepEqual(after, before) {
				t.Fatal("clone's cached nodes changed after the parent wrote")
			}
			if v := clone.AuditTree(); len(v) != 0 {
				t.Fatalf("clone audit after the parent wrote: %v", v)
			}
			verifyAll(t, clone, expect)
		})
	}
}
