package core

// A checkpoint file is a fixed header followed by the component's full
// replication frame exactly as AppendBinary writes it (replwire.go), so disk
// and the replication channel share one encoding and one decoder:
//
//	file    = magic version crc body
//	magic   = the 8 bytes "FCHAINCK"
//	version = u32 CheckpointVersion, little-endian
//	crc     = u32 IEEE CRC-32 of body, little-endian
//	body    = a full frame
//
// The file carries no save time: its modification time says when it was
// written. A version-1 file, a JSON envelope around decimal rings, fails the
// magic check like any other unreadable file, and the slave cold-starts.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"fchain/internal/markov"
	"fchain/internal/metric"
	"fchain/internal/obs"
)

// CheckpointVersion is the on-disk checkpoint format version. Load refuses
// any other version instead of guessing: a model restored from a
// misinterpreted checkpoint silently corrupts every later diagnosis, which
// is strictly worse than a cold start.
const CheckpointVersion = 2

const (
	checkpointMagic  = "FCHAINCK"
	checkpointHeader = len(checkpointMagic) + 8 // magic, version, crc
)

// SaveCheckpoint writes the monitor's state as a checkpoint at path through
// obs.WriteFileAtomic, so a crash mid-write leaves either the previous
// checkpoint or none — never a torn one.
func (m *Monitor) SaveCheckpoint(path string) error {
	return obs.WriteFileAtomic(path, m.encodeCheckpoint())
}

// encodeCheckpoint returns the monitor's checkpoint file.
func (m *Monitor) encodeCheckpoint() []byte {
	var d ReplDelta
	m.fullInto(&d)
	b := binary.LittleEndian.AppendUint32([]byte(checkpointMagic), CheckpointVersion)
	b, _ = d.AppendBinary(append(b, 0, 0, 0, 0)) // crc, filled in below
	binary.LittleEndian.PutUint32(b[checkpointHeader-4:], crc32.ChecksumIEEE(b[checkpointHeader:]))
	return b
}

// LoadCheckpoint replaces the monitor's state with the checkpoint at path,
// written by SaveCheckpoint for the same component. On any error — a missing
// or unreadable file, another format or version, a checksum mismatch, or a
// state applyFull refuses — the monitor is unchanged, and callers should
// cold-start.
func (m *Monitor) LoadCheckpoint(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var d ReplDelta
	if err = decodeCheckpoint(raw, &d); err == nil {
		err = m.applyFull(&d)
	}
	if err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	return nil
}

// decodeCheckpoint checks a checkpoint file's header and checksum and
// decodes its body into d. It refuses a body SaveCheckpoint could not have
// written, so that an accepted file saves back byte for byte: one that is
// not a full frame or does not re-encode to itself (a fresh sanitizer state
// listed, say), or holds a metric canonical refuses. The decoded runs alias
// raw.
func decodeCheckpoint(raw []byte, d *ReplDelta) error {
	if len(raw) < checkpointHeader || string(raw[:len(checkpointMagic)]) != checkpointMagic {
		return errors.New("not a checkpoint file")
	}
	header := raw[len(checkpointMagic):checkpointHeader]
	if v := binary.LittleEndian.Uint32(header); v != CheckpointVersion {
		return fmt.Errorf("version %d, want %d", v, CheckpointVersion)
	}
	body := raw[checkpointHeader:]
	if sum, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(header[4:]); sum != want {
		return fmt.Errorf("checksum mismatch: body %08x, recorded %08x", sum, want)
	}
	if err := DecodeDelta(body, d); err != nil {
		return err
	}
	if !d.Full {
		return errors.New("body is an incremental frame, not a full one")
	}
	if again, _ := d.AppendBinary(nil); !bytes.Equal(again, body) {
		return errors.New("body is not in the encoding SaveCheckpoint writes")
	}
	for i, k := range metric.Kinds {
		if err := d.Metrics[i].canonical(); err != nil {
			return fmt.Errorf("%s: %v", k, err)
		}
	}
	return nil
}

// canonical reports why s is not what fullInto writes for the state it
// would restore: two runs that meet without a gap, which a ring merges, or
// a model that does not survive a restore unchanged. Neither harms a
// monitor, so applyFull, which peers' frames also pass, does not check them.
func (s *ReplMetric) canonical() error {
	for i := 1; i < len(s.Runs); i++ {
		if t := s.Runs[i].T0; t == s.Runs[i-1].last()+1 {
			return fmt.Errorf("runs meet at t=%d without a gap", t)
		}
	}
	p, err := markov.FromSnapshot(s.Model)
	if err != nil {
		return fmt.Errorf("model: %v", err)
	}
	if !bytes.Equal(appendModel(nil, p.Snapshot()), appendModel(nil, s.Model)) {
		return errors.New("model does not re-encode to its own bytes")
	}
	return nil
}
