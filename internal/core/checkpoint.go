package core

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"fchain/internal/obs"
)

// CheckpointVersion is the on-disk checkpoint format version. Load rejects
// any other version instead of guessing: a model restored from a
// misinterpreted checkpoint silently corrupts every later diagnosis, which
// is strictly worse than a cold start.
const CheckpointVersion = 1

// checkpointFile is the on-disk envelope: a version, a CRC32 of the payload
// so torn or bit-rotted files are detected, and the payload itself.
type checkpointFile struct {
	Version  int             `json:"version"`
	SavedAt  int64           `json:"saved_at"` // unix seconds, informational
	Checksum uint32          `json:"checksum"` // IEEE CRC32 of Payload
	Payload  json.RawMessage `json:"payload"`
}

// SaveCheckpoint writes snap as a versioned, checksummed checkpoint at path
// through obs.WriteFileAtomic, so a crash mid-write leaves either the
// previous checkpoint or none — never a torn one.
func SaveCheckpoint(path string, snap *MonitorSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	raw, err := json.Marshal(checkpointFile{
		Version:  CheckpointVersion,
		SavedAt:  time.Now().Unix(),
		Checksum: crc32.ChecksumIEEE(payload),
		Payload:  payload,
	})
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint envelope: %w", err)
	}
	return obs.WriteFileAtomic(path, raw)
}

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint, verifying the
// format version and the payload checksum first. Callers should treat any
// error as "no usable checkpoint" and cold-start.
func LoadCheckpoint(path string) (*MonitorSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f checkpointFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	if f.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, want %d", path, f.Version, CheckpointVersion)
	}
	if sum := crc32.ChecksumIEEE(f.Payload); sum != f.Checksum {
		return nil, fmt.Errorf("core: checkpoint %s checksum mismatch: payload %08x, recorded %08x", path, sum, f.Checksum)
	}
	snap := new(MonitorSnapshot)
	if err := json.Unmarshal(f.Payload, snap); err != nil {
		return nil, fmt.Errorf("core: decode checkpoint %s payload: %w", path, err)
	}
	return snap, nil
}
