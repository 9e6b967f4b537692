package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
)

// updateGolden regenerates testdata/golden_results.json from the
// current implementation:
//
//	go test ./internal/sim -run TestGoldenResults -update-golden
//
// Only do this for a change that is *meant* to alter measured results;
// performance work must leave every cell bit-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden results file")

const goldenPath = "testdata/golden_results.json"

// goldenCell is one (workload, scheme) row of the golden matrix.
type goldenCell struct {
	Workload string
	Scheme   string
	Results  *Results
}

func goldenConfig(scheme string) Config {
	cfg := Default()
	cfg.Cores = 2
	cfg.DataBytes = 16 << 20
	cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
	cfg.L3 = cache.Config{SizeBytes: 1 << 20, Ways: 8}
	cfg.Scheme = scheme
	return cfg
}

// goldenSchemes are the golden matrix's schemes, in row order.
var goldenSchemes = []string{"wb", "strict", "anubis", "phoenix", "star"}

// lockStepConfigs are the members of the golden lock-step group: every
// golden scheme, then star on a non-default ADR split and star on a
// smaller metadata cache.
func lockStepConfigs(t *testing.T) []Config {
	var cfgs []Config
	for _, scheme := range goldenSchemes {
		cfgs = append(cfgs, goldenConfig(scheme))
	}
	adr := goldenConfig("star")
	var err error
	if adr.Bitmap, err = bitmap.SplitADR(4); err != nil {
		t.Fatal(err)
	}
	small := goldenConfig("star")
	small.MetaCache.SizeBytes = 32 << 10
	return append(cfgs, adr, small)
}

// TestGoldenResults locks every figure/table quantity to the values the
// pre-optimization implementation produced: the paged NVM store, the
// incremental set-MAC maintenance, the cache fast paths and machine
// reuse are pure performance work, so each per-cell Results row must
// stay reflect.DeepEqual to the recorded golden run.
//
// Every cell additionally runs on a second, Reset-reused machine (one
// per scheme, recycled across workloads and across crashes) and must
// match the fresh machine exactly — Results and the post-crash
// non-volatile snapshot — pinning the Reset invariant the experiment
// runner's machine pool depends on.
//
// Each workload also runs once on a lock-step group of every golden
// scheme plus two star members on other ADR and metadata-cache sizes,
// pinning the group invariant: every member's Results equal its solo
// machine's (for the golden schemes, the golden row), and every member
// forked out and crashed saves the same non-volatile bytes as its
// crashed solo machine.
func TestGoldenResults(t *testing.T) {
	if testing.Short() {
		t.Skip("golden matrix runs ten full cells")
	}
	const ops = 1200
	var cells, groupCells []goldenCell
	reused := make(map[string]*Machine)
	groupCfgs := lockStepConfigs(t)
	for _, workload := range []string{"hash", "queue"} {
		group, err := NewGroup(groupCfgs...)
		if err != nil {
			t.Fatal(err)
		}
		groupRes, err := group.RunEach(context.Background(), workload, ops)
		if err != nil {
			t.Fatalf("%s: group: %v", workload, err)
		}
		checkMember := func(i int, res *Results, solo *Machine) {
			t.Helper()
			label := fmt.Sprintf("%s/member %d (%s)", workload, i, memberName(groupCfgs[i]))
			if !reflect.DeepEqual(groupRes[i], res) {
				t.Errorf("%s: group results diverged from the solo machine's:\nsolo  %+v\ngroup %+v", label, res, groupRes[i])
			}
			fk := group.ForkMember(i)
			fk.Crash()
			if !bytes.Equal(snapshotOf(t, fk, label), snapshotOf(t, solo, label+" solo")) {
				t.Errorf("%s: forked-out member's post-crash snapshot differs from the solo machine's", label)
			}
		}
		for si, scheme := range goldenSchemes {
			cfg := goldenConfig(scheme)
			m, err := NewMachine(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", workload, scheme, err)
			}
			res, err := m.Run(workload, ops)
			if err != nil {
				t.Fatalf("%s/%s: %v", workload, scheme, err)
			}
			cells = append(cells, goldenCell{Workload: workload, Scheme: scheme, Results: res})

			// Replay the cell on the recycled machine. Reset runs before
			// every use — including the first, and after the crash the
			// previous cell left behind — so a reused machine only ever
			// reaches a run through the Reset path.
			rm, ok := reused[scheme]
			if !ok {
				if rm, err = NewMachine(goldenConfig(scheme)); err != nil {
					t.Fatalf("%s/%s: reused machine: %v", workload, scheme, err)
				}
				reused[scheme] = rm
			}
			rm.Reset(cfg.Seed)
			rres, err := rm.Run(workload, ops)
			if err != nil {
				t.Fatalf("%s/%s: reused run: %v", workload, scheme, err)
			}
			if !reflect.DeepEqual(res, rres) {
				t.Errorf("%s/%s: reused machine diverged from fresh:\nfresh  %+v\nreused %+v",
					workload, scheme, res, rres)
			}
			m.Crash()
			rm.Crash()
			var fresh, recyc bytes.Buffer
			if err := m.Engine().SaveNonVolatile(&fresh); err != nil {
				t.Fatalf("%s/%s: snapshot fresh: %v", workload, scheme, err)
			}
			if err := rm.Engine().SaveNonVolatile(&recyc); err != nil {
				t.Fatalf("%s/%s: snapshot reused: %v", workload, scheme, err)
			}
			if !bytes.Equal(fresh.Bytes(), recyc.Bytes()) {
				t.Errorf("%s/%s: post-crash snapshot differs between fresh and reused machines (%d vs %d bytes)",
					workload, scheme, fresh.Len(), recyc.Len())
			}
			groupCells = append(groupCells, goldenCell{Workload: workload, Scheme: scheme, Results: groupRes[si]})
			checkMember(si, res, m)
		}
		for i := len(goldenSchemes); i < len(groupCfgs); i++ {
			solo, err := NewMachine(groupCfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			res, err := solo.Run(workload, ops)
			if err != nil {
				t.Fatalf("%s: member %d solo: %v", workload, i, err)
			}
			solo.Crash()
			checkMember(i, res, solo)
		}
	}

	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cells)", goldenPath, len(cells))
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update-golden): %v", err)
	}
	if groupGot, err := json.MarshalIndent(groupCells, "", "  "); err != nil {
		t.Fatal(err)
	} else if !bytes.Equal(append(groupGot, '\n'), want) {
		t.Errorf("lock-step group's golden-scheme rows differ from the golden file")
	}
	if bytes.Equal(got, want) {
		return
	}
	// Pinpoint the diverging cells before failing.
	var wantCells []goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	var gotCells []goldenCell
	if err := json.Unmarshal(got, &gotCells); err != nil {
		t.Fatal(err)
	}
	if len(wantCells) != len(gotCells) {
		t.Fatalf("golden matrix has %d cells, run produced %d", len(wantCells), len(gotCells))
	}
	for i := range wantCells {
		if !reflect.DeepEqual(wantCells[i], gotCells[i]) {
			t.Errorf("%s/%s diverged from the golden run:\nwant %+v\ngot  %+v",
				wantCells[i].Workload, wantCells[i].Scheme, wantCells[i].Results, gotCells[i].Results)
		}
	}
	if !t.Failed() {
		t.Fatal("golden bytes differ but cells compare equal; regenerate the golden file")
	}
}
