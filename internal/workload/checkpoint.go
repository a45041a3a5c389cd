package workload

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"time"

	"honeyfarm/internal/analysis"
	"honeyfarm/internal/atomicio"
	"honeyfarm/internal/faults"
	"honeyfarm/internal/honeypot"
	"honeyfarm/internal/iofault"
	"honeyfarm/internal/wal"
)

// manifestName is the checkpoint manifest file within CheckpointDir.
const manifestName = "manifest.json"

// manifestFormat identifies the manifest schema.
const manifestFormat = "honeyfarm-manifest-v1"

// manifest is the durable description of a checkpointed generation run.
// The fingerprint pins every output-shaping configuration field, so a
// resume with a different seed, scale or fault plan is refused instead
// of silently splicing two incompatible datasets together.
type manifest struct {
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint"`
	// Seed and TotalSessions are echoed for human inspection; the
	// fingerprint is what resume validation trusts.
	Seed          int64 `json:"seed"`
	TotalSessions int   `json:"total_sessions"`
}

// fingerprint hashes the configuration fields that shape the generated
// bytes. Workers is deliberately excluded (a pure speed knob — the
// sharded pipeline is byte-identical at any worker count), as are the
// checkpoint fields themselves. The Registry is derived from Seed by
// every caller, so Seed covers it. IPDivisor and MidTierCampaigns were
// once options; they are hashed at their fixed values so checkpoints
// written while they were still resume.
func fingerprint(cfg Config) (string, error) {
	shaped := struct {
		Seed             int64
		TotalSessions    int
		Days             int
		NumPots          int
		Epoch            time.Time
		Spikes           []Spike
		IPDivisor        float64
		MidTierCampaigns int
		DisableCampaigns bool
		Shares           *[analysis.NumCategories]float64
		SSHShares        *[analysis.NumCategories]float64
		Faults           *faults.Plan
	}{
		Seed:             cfg.Seed,
		TotalSessions:    cfg.TotalSessions,
		Days:             cfg.Days,
		NumPots:          cfg.NumPots,
		Epoch:            cfg.Epoch,
		Spikes:           cfg.Spikes,
		IPDivisor:        ipDivisor,
		MidTierCampaigns: midTierCampaigns(cfg.TotalSessions),
		DisableCampaigns: cfg.DisableCampaigns,
		Shares:           cfg.Shares,
		SSHShares:        cfg.SSHShares,
		Faults:           cfg.Faults,
	}
	b, err := json.Marshal(shaped)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// checkpoint is the open durable state of a generation run: the WAL the
// decoration workers append completed shards to, plus the shards
// recovered from a previous interrupted run.
type checkpoint struct {
	log *wal.Log
	// completed maps shard index -> that shard's surviving records, as
	// recovered from the WAL. Shards present here are not re-decorated.
	completed map[int][]*honeypot.SessionRecord

	mu  sync.Mutex
	err error // first append failure
}

// openCheckpoint prepares cfg.CheckpointDir. Must be called after the
// config's defaults are applied, so fresh and resumed runs fingerprint
// identically. Returns nil when checkpointing is disabled.
//
// Semantics: without Resume the directory must not already hold a
// manifest (refusing to clobber a previous run); with Resume a matching
// manifest continues the run — and a missing one simply starts a fresh
// checkpoint, so "resume" is always safe to pass.
func openCheckpoint(cfg Config) (*checkpoint, error) {
	if cfg.CheckpointDir == "" {
		if cfg.Resume {
			return nil, fmt.Errorf("Resume requires CheckpointDir")
		}
		return nil, nil
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = iofault.OS
	}
	if err := fsys.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		return nil, err
	}
	fp, err := fingerprint(cfg)
	if err != nil {
		return nil, fmt.Errorf("fingerprinting config: %w", err)
	}
	mPath := filepath.Join(cfg.CheckpointDir, manifestName)
	raw, err := iofault.ReadFile(fsys, mPath)
	switch {
	case err == nil:
		if !cfg.Resume {
			return nil, fmt.Errorf("%s already holds a checkpoint; pass Resume to continue it or use a fresh directory", cfg.CheckpointDir)
		}
		var m manifest
		if uerr := json.Unmarshal(raw, &m); uerr != nil {
			return nil, fmt.Errorf("reading manifest: %w", uerr)
		}
		if m.Format != manifestFormat {
			return nil, fmt.Errorf("manifest has unknown format %q", m.Format)
		}
		if m.Fingerprint != fp {
			return nil, fmt.Errorf("checkpoint in %s was created by a different configuration (seed %d, %d sessions); refusing to resume", cfg.CheckpointDir, m.Seed, m.TotalSessions)
		}
	case errors.Is(err, fs.ErrNotExist):
		m, merr := json.Marshal(manifest{
			Format: manifestFormat, Fingerprint: fp,
			Seed: cfg.Seed, TotalSessions: cfg.TotalSessions,
		})
		if merr != nil {
			return nil, merr
		}
		if werr := atomicio.WriteFileBytesFS(fsys, mPath, append(m, '\n')); werr != nil {
			return nil, fmt.Errorf("writing manifest: %w", werr)
		}
	default:
		return nil, fmt.Errorf("reading manifest: %w", err)
	}

	log, rec, err := wal.Open(cfg.CheckpointDir, wal.Options{Epoch: cfg.Epoch, FS: fsys})
	if err != nil {
		return nil, err
	}
	ck := &checkpoint{log: log, completed: make(map[int][]*honeypot.SessionRecord)}
	for _, b := range rec.Batches {
		ck.completed[int(b.Tag)] = b.Records
	}
	return ck, nil
}

// shard returns the recovered records of a completed shard; none on a
// nil checkpoint.
func (c *checkpoint) shard(i int) ([]*honeypot.SessionRecord, bool) {
	if c == nil {
		return nil, false
	}
	recs, ok := c.completed[i]
	return recs, ok
}

// append durably records a freshly decorated shard. Failures are
// sticky: the first error is kept and surfaced once decoration joins.
func (c *checkpoint) append(shard int, recs []*honeypot.SessionRecord) {
	if err := c.log.AppendTagged(uint64(shard), recs); err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	}
}

// close syncs and closes the WAL, returning the first append error.
func (c *checkpoint) close() error {
	cerr := c.log.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return cerr
}
