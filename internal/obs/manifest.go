package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema versions the RunManifest JSON layout.
const ManifestSchema = 1

// RunManifest records everything needed to reproduce (and audit) one
// simulation run. One is written alongside every campaign output, so a
// figure or trace can always be traced back to the exact configuration,
// seed and toolchain that produced it.
type RunManifest struct {
	// Schema is the manifest layout version (ManifestSchema).
	Schema int `json:"schema"`
	// Tool names the producing command (campaign, figures).
	Tool string `json:"tool"`
	// Config is the canonical JSON of the run configuration;
	// ConfigDigest is its SHA-256. Re-running the tool with this config
	// and Seed reproduces the outputs byte-for-byte.
	Config       json.RawMessage `json:"config"`
	ConfigDigest string          `json:"config_digest"`
	// Seed is the campaign base seed every job seed derives from.
	Seed int64 `json:"seed"`
	// Workers is the fleet pool size the run used (0 = GOMAXPROCS).
	// Outputs do not depend on it; it is recorded for performance
	// forensics only.
	Workers int `json:"workers"`

	// Scenario names the declarative scenario the run executed and
	// ScenarioDigest is the SHA-256 of its canonical JSON (both omitted
	// by tools that run no scenario, such as cmd/figures).
	Scenario       string `json:"scenario,omitempty"`
	ScenarioDigest string `json:"scenario_digest,omitempty"`

	// Toolchain and host provenance.
	GoVersion string `json:"go_version"`
	// GitRevision is the VCS revision the binary was built from, as the
	// Go toolchain stamps it. A manifest committed with the outputs it
	// describes is regenerated in the working tree before that commit
	// exists, so it names the commit it was regenerated on: the parent
	// of the commit that carries it.
	GitRevision string `json:"git_revision,omitempty"`
	// GitDirty reports uncommitted changes in the build's working tree.
	// It reads true in every committed manifest, because the change that
	// regenerates the outputs is not yet committed when they are made.
	GitDirty bool   `json:"git_dirty,omitempty"`
	OS       string `json:"os"`
	Arch     string `json:"arch"`
	NumCPU   int    `json:"num_cpu"`

	// Run accounting.
	Start          time.Time `json:"start"`
	WallSeconds    float64   `json:"wall_seconds"`
	JobsDone       int64     `json:"jobs_done"`
	SlotsSimulated int64     `json:"slots_simulated"`
	TraceBytes     int64     `json:"trace_bytes"`

	// Fault-injection accounting (all omitted for fault-free runs, so
	// legacy manifests are byte-identical). Retries counts job attempts
	// beyond the first; BackoffSimNs is the total simulated retry
	// backoff; Failures is the per-session failure provenance after
	// retries were exhausted.
	Retries      int64            `json:"retries,omitempty"`
	BackoffSimNs int64            `json:"backoff_sim_ns,omitempty"`
	Failures     []SessionFailure `json:"failures,omitempty"`

	// Outputs lists the files the run produced, relative to the
	// manifest's own directory.
	Outputs []string `json:"outputs,omitempty"`
}

// SessionFailure is one failed campaign session's provenance as recorded
// in the manifest: which job, how many attempts, and what class of fault
// killed it. core.RunSessions records it directly, so campaign results
// and manifests carry the same records.
type SessionFailure struct {
	Key      string `json:"key"`
	Operator string `json:"operator"`
	Session  int    `json:"session"`
	Attempts int    `json:"attempts"`
	Stage    string `json:"stage"`
	Err      string `json:"err,omitempty"`
}

// DigestJSON canonicalizes v through encoding/json (struct field order,
// no insignificant whitespace) and returns hex(SHA-256) of the bytes.
func DigestJSON(v any) (digest string, canonical []byte, err error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", nil, fmt.Errorf("obs: digesting config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b, nil
}

// NewManifest starts a manifest for tool with the given run
// configuration, stamping the toolchain, VCS and host provenance. The
// caller fills the accounting fields when the run completes and writes
// it with [WriteManifest].
func NewManifest(tool string, config any) (*RunManifest, error) {
	digest, canonical, err := DigestJSON(config)
	if err != nil {
		return nil, err
	}
	m := &RunManifest{
		Schema:       ManifestSchema,
		Tool:         tool,
		Config:       canonical,
		ConfigDigest: digest,
		GoVersion:    runtime.Version(),
		OS:           runtime.GOOS,
		Arch:         runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		Start:        time.Now().UTC(), //detlint:allow walltime provenance timestamp, excluded from the config digest
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitDirty = s.Value == "true"
			}
		}
	}
	return m, nil
}

// Verify recomputes the config digest and reports whether it matches —
// the integrity check a consumer runs before trusting a manifest. The
// config JSON is compacted first, so pretty-printing survives the
// write→read round trip without breaking the digest.
func (m *RunManifest) Verify() error {
	var buf bytes.Buffer
	if err := json.Compact(&buf, m.Config); err != nil {
		return fmt.Errorf("obs: manifest config is not valid JSON: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != m.ConfigDigest {
		return fmt.Errorf("obs: manifest config digest mismatch: recorded %s, recomputed %s", m.ConfigDigest, got)
	}
	return nil
}

// WriteManifest writes the manifest as indented JSON at path. The write
// goes through a temp file + rename so a crashed run never leaves a
// half-written manifest next to its outputs.
func WriteManifest(path string, m *RunManifest) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: writing manifest: %w", err)
	}
	return nil
}

// ReadManifest parses a manifest written by WriteManifest and verifies
// its config digest.
func ReadManifest(path string) (*RunManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: reading manifest: %w", err)
	}
	var m RunManifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: manifest %s has schema %d, want %d", path, m.Schema, ManifestSchema)
	}
	if err := m.Verify(); err != nil {
		return nil, err
	}
	return &m, nil
}
