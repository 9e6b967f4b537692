// Package provenance fingerprints experiment runs so two sweeps are
// comparable without re-reading their full results. Every run gets a
// manifest: the environment it ran in (Go toolchain, OS/arch, CPU, git
// revision), a seedless fingerprint of the simulator configuration,
// the seed matrix, wall and simulated time, the runner's final pool
// statistics, and a SHA-256 digest of each cell's canonical-JSON
// results. The simulator is deterministic, so cell digests are
// machine-independent (on a given architecture's floating-point
// contraction behaviour): a digest mismatch between two manifests
// localizes exactly which workload x scheme x seed cell diverged.
//
// Digest canonicalization: the value is marshaled with encoding/json,
// re-decoded with json.Number (so integers above 2^53 survive
// byte-exactly), and re-encoded — object keys end up sorted and
// numbers keep their shortest-form literals, making the bytes a stable
// function of the value alone.
package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"nvmstar/internal/bitmap"
	"nvmstar/internal/cache"
	"nvmstar/internal/sim"
	"nvmstar/internal/simcrypto"
)

// CanonicalJSON renders v as canonical JSON: compact, object keys
// sorted, number literals preserved (no float64 round-trip for large
// integers).
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, err
	}
	// encoding/json sorts map keys and emits json.Number literals
	// verbatim, which is exactly the canonical form.
	return json.Marshal(tree)
}

// Digest returns the lowercase-hex SHA-256 of v's canonical JSON.
func Digest(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Env records where a run happened. Digests are expected to agree
// across environments (the simulator is deterministic); wall-clock
// numbers are not, so comparators use Env to decide which fields are
// meaningful to diff.
type Env struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	CPU       string `json:"cpu,omitempty"`
	GitRev    string `json:"git_rev,omitempty"`
}

// CaptureEnv snapshots the current process's environment. gitRev
// overrides revision detection (for clean build environments without a
// .git directory); empty falls back to `git rev-parse --short HEAD`.
func CaptureEnv(gitRev string) Env {
	if gitRev == "" {
		gitRev = GitRevision(".")
	}
	return Env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		CPU:       cpuModel(),
		GitRev:    gitRev,
	}
}

// GitRevision returns the short HEAD revision of the repository
// containing dir (with a "+dirty" suffix when the worktree has
// uncommitted changes), or "" when git or the repository is absent —
// provenance capture must never fail a run.
func GitRevision(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	rev := strings.TrimSpace(string(out))
	if rev == "" {
		return ""
	}
	if status, err := exec.Command("git", "-C", dir, "status", "--porcelain").Output(); err == nil &&
		len(bytes.TrimSpace(status)) > 0 {
		rev += "+dirty"
	}
	return rev
}

// cpuModel best-effort reads the CPU model name (Linux /proc/cpuinfo;
// empty elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// ConfigFingerprint fingerprints a simulator configuration with the
// seed zeroed — the same equivalence the experiment runner's machine
// pool uses, extended by hashing: two runs with equal fingerprints
// simulate the same machine and differ only in seeds, so their cell
// digests are directly comparable. A caller-supplied crypto suite is
// stateful and not fingerprintable; its presence is recorded so such
// configs never compare equal to a default-suite run.
func ConfigFingerprint(cfg sim.Config) string {
	customSuite := cfg.Suite != nil
	cfg.Suite = nil
	cfg.Seed = 0
	// The hash input is the %+v rendering of fingerprintConfig, an
	// explicit mirror of the config fields as of the fingerprint's
	// introduction — NOT of sim.Config itself, whose %+v string (and
	// therefore every sealed manifest's fingerprint) would silently
	// change each time a field is added. New fields must opt in: either
	// mix into the suffix when non-default (as Observe does — the
	// observatory adds WriteBreakdown and Latency to cell results, so
	// observed runs must not compare equal to unobserved baselines) or
	// extend the mirror with a new pinned baseline. Fields that left
	// sim.Config stay in the mirror pinned at the one value they
	// always held: zero for TrackWear, Shards, SampleEveryNs,
	// TraceEvents, Timing and Energy (Default left the last two zero),
	// and Table I's values, now constants of the machine model, for
	// FreqGHz through Banks. TestConfigFingerprintPinned guards this.
	s := fmt.Sprintf("%+v", fingerprintConfig{
		Cores: cfg.Cores, DataBytes: cfg.DataBytes,
		L1: cfg.L1, L2: cfg.L2, L3: cfg.L3,
		MetaCache: cfg.MetaCache, Scheme: cfg.Scheme, Bitmap: cfg.Bitmap,
		Suite: cfg.Suite, FreqGHz: 2,
		L1LatNs: 0.5, L2LatNs: 2, L3LatNs: 15, MCLatNs: 5,
		WriteQueue: 64, Banks: 8,
		Seed: cfg.Seed, Telemetry: cfg.Telemetry,
	})
	if customSuite {
		s += "+custom-suite"
	}
	if cfg.Observe {
		// The suffix the observatory's two former switches produced when
		// both were on, so fingerprints sealed by such runs keep their
		// value.
		s += "+attr+lat"
	}
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// fingerprintConfig mirrors sim.Config's fields (names, types, order)
// exactly as they stood when fingerprints were first sealed into
// manifests, freezing the %+v hash input against future Config growth.
type fingerprintConfig struct {
	Cores         int
	DataBytes     uint64
	L1            cache.Config
	L2            cache.Config
	L3            cache.Config
	MetaCache     cache.Config
	Scheme        string
	Bitmap        bitmap.Config
	Suite         simcrypto.Suite
	Timing        fingerprintTiming // always zero, as Shards: the timing model is constants
	Energy        fingerprintEnergy // always zero, as Shards: the energy model is constants
	TrackWear     bool              // always false, as Shards: wear is now a subscriber a tool attaches
	FreqGHz       float64           // FreqGHz through Banks: always Table I's values, now constants of the machine model
	L1LatNs       float64
	L2LatNs       float64
	L3LatNs       float64
	MCLatNs       float64
	WriteQueue    int
	Banks         int
	Seed          uint64
	Shards        int // always zero: the option it mirrored is gone; kept only for hash stability
	Telemetry     bool
	SampleEveryNs float64 // always zero, as Shards: sampling is now a subscriber a tool attaches
	TraceEvents   bool    // always zero, as Shards: tracing is now a subscriber a tool attaches
}

// fingerprintTiming and fingerprintEnergy mirror the field names of
// the nvm timing and energy structs the config once carried; %+v
// prints field names, not type names.
type fingerprintTiming struct{ TRCDns, TCLns, TCWDns, TFAWns, TWTRns, TWRns float64 }

type fingerprintEnergy struct{ ReadPJ, WritePJ float64 }
