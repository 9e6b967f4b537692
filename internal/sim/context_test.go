package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"nvmstar/internal/cache"
)

func ctxTestConfig() Config {
	cfg := Default()
	cfg.Cores = 2
	cfg.DataBytes = 16 << 20
	cfg.MetaCache = cache.Config{SizeBytes: 64 << 10, Ways: 8}
	return cfg
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := NewMachine(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunCtx(ctx, "queue", 1000); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := NewMachine(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Far more ops than can finish in 20 ms: only cancellation ends it.
	_, err = m.RunCtx(ctx, "hash", 50_000_000)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, not mid-run", elapsed)
	}
}

func TestCancelMidPersist(t *testing.T) {
	m, err := NewMachine(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.SetContext(ctx)
	m.SetCore(0)
	m.Store(0, []byte{1})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Walk the whole data region over and over (out-of-range spans are
	// rejected up front now); the in-loop cancellation poll must end the
	// walking promptly, long before the iteration cap.
	region := int(m.Config().DataBytes)
	for i := 0; i < 1<<20 && m.Err() == nil; i++ {
		m.Persist(0, region)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("Persist ran %v after cancellation", elapsed)
	}
	if !errors.Is(m.Err(), context.Canceled) {
		t.Fatalf("machine error = %v, want context.Canceled", m.Err())
	}
}

func TestRunCtxUncanceledMatchesRun(t *testing.T) {
	m1, err := NewMachine(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res1, err := m1.Run("queue", 500)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(ctxTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.RunCtx(context.Background(), "queue", 500)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Dev != res2.Dev || res1.IPC != res2.IPC || res1.Instructions != res2.Instructions {
		t.Fatalf("context-aware run diverged:\nrun:    %+v\nrunCtx: %+v", res1, res2)
	}
}

func TestRunScenario(t *testing.T) {
	res, m, err := RunScenario(ctxTestConfig(), "array", 400)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || res.Ops != 400 {
		t.Fatalf("res = %+v", res)
	}
}
