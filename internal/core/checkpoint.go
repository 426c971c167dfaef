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
// magic check like any other unreadable file, and a version-2 file, whose
// models carried dense count rows (replication format 1), fails the version
// check; either way the slave cold-starts once and its next checkpoint
// rewrites the file.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"fchain/internal/metric"
	"fchain/internal/obs"
)

// CheckpointVersion is the on-disk checkpoint format version. Load refuses
// any other version instead of guessing: a model restored from a
// misinterpreted checkpoint silently corrupts every later diagnosis, which
// is strictly worse than a cold start.
const CheckpointVersion = 3

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
// listed, say), or holds runs that meet without a gap, which a ring merges.
// A model needs no such check: FromSnapshot installs what it accepts as it
// is. The decoded runs alias raw.
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
		runs := d.Metrics[i].Runs
		for j := 1; j < len(runs); j++ {
			if t := runs[j].T0; t == runs[j-1].last()+1 {
				return fmt.Errorf("%s: runs meet at t=%d without a gap", k, t)
			}
		}
	}
	return nil
}
