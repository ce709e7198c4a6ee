// Package checkpoint makes measurement runs crash-safe: it defines a
// versioned, checksummed snapshot of the complete simulator state — CPU
// architectural and micro state, OS scheduler state, cache/TB/memory
// contents, write buffer, fault-plane PRNG streams, and the live µPC
// histogram — together with a generation-keeping directory writer whose
// files are written atomically (temp file + rename) and loaded newest-
// first with automatic fallback past corrupt generations.
//
// The contract the rest of the system builds on is deterministic resume:
// a run checkpointed at cycle C and resumed produces a histogram, counter
// set, and reduction bit-identical to an uninterrupted run (proved by
// TestCheckpointResumeDeterminism in internal/workload). The paper's
// sessions were ~1-hour attachments to live machines (§2.2); an
// interrupted session that can continue without invalidating its numbers
// is the moral equivalent.
//
// On-disk layout of one snapshot:
//
//	offset 0   8 bytes   magic "VAX780CP"
//	offset 8   4 bytes   format version (little-endian)
//	offset 12  8 bytes   payload length n (little-endian)
//	offset 20  n bytes   gob-encoded Snapshot
//	offset 20+n  32 bytes  SHA-256 over bytes [0, 20+n)
//
// Any damage — truncation, padding, a flipped bit anywhere — fails the
// length or checksum test and is reported as ErrCorrupt; the gob decoder
// only ever sees checksum-verified bytes.
//
// Physical memory travels sparse (format version 2): the payload carries
// only the 512-byte page frames that hold a non-zero byte, with their
// frame indices (mem.MemoryState). A measurement run touches a few
// percent of its 8 MB array, so a snapshot is some hundreds of kilobytes
// rather than the array's full size, and encoding, checksumming and
// writing it cost that much less. The form is canonical — equal
// memories export equal states — and no part of the snapshot is a map,
// so snapshots of equal runs are byte-identical (format version 3;
// TestEqualRunsEncodeIdentically in internal/workload).
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/vmos"
)

// FormatVersion is the current snapshot format version. Decode rejects
// snapshots from other versions (no silent cross-version resume).
// Version 3 carries per-process CPU time as a PCB-sorted list
// (vmos.ProcTime) and the pending machine check as one value
// (cpu.PendingMC); version 2 carried a map, which gob writes in random
// order; version 1 stored physical memory as the whole array rather
// than its non-zero page frames.
const FormatVersion = 3

var magic = [8]byte{'V', 'A', 'X', '7', '8', '0', 'C', 'P'}

const (
	headerLen  = 20 // magic + version + payload length
	trailerLen = sha256.Size
)

// ErrCorrupt reports a snapshot that is truncated, padded, checksum-
// damaged, or otherwise undecodable. Wrapped by Decode and the Dir loader.
var ErrCorrupt = errors.New("corrupt checkpoint")

// ErrBadVersion reports a snapshot from a different format version.
var ErrBadVersion = errors.New("unsupported checkpoint format version")

// Meta identifies what a snapshot is a checkpoint of, with everything the
// resume path needs to rebuild the run before importing the state.
type Meta struct {
	// Profile is the workload profile name (internal/workload.ByName).
	Profile string
	// Seed is the effective generation seed of the run's profile. Fleet
	// runs (internal/farm) derive per-instance seeds from the registry
	// profile, so the name alone under-identifies the run; resume
	// rebuilds the program from this seed, never the registry's.
	Seed int64
	// TotalCycles is the run's full cycle budget; Cycle is how far the
	// checkpointed run had progressed. Cycle >= TotalCycles marks a
	// completed run (kept so a composite resume can reload finished
	// workloads without re-running them).
	TotalCycles uint64
	Cycle       uint64
	// Machine is the machine configuration of the run.
	Machine cpu.Config
	// Fault is the fault-injection configuration (nil for a clean run).
	Fault *fault.Config
}

// Snapshot is the complete state of one measurement run.
type Snapshot struct {
	Meta    Meta
	CPU     cpu.State
	OS      vmos.State
	Monitor core.MonitorState
	// FaultState is the injection plane's PRNG stream positions and
	// statistics (nil for a clean run).
	FaultState *fault.State
}

// Complete reports whether the snapshot is of a run that finished its
// cycle budget.
func (s *Snapshot) Complete() bool { return s.Meta.Cycle >= s.Meta.TotalCycles }

// Encode writes the snapshot in the checksummed on-disk form.
func Encode(w io.Writer, s *Snapshot) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(payload.Len()))
	sum := sha256.New()
	sum.Write(hdr[:])
	sum.Write(payload.Bytes())
	for _, b := range [][]byte{hdr[:], payload.Bytes(), sum.Sum(nil)} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("checkpoint: writing snapshot: %w", err)
		}
	}
	return nil
}

// Decode reads a snapshot written by Encode. It never panics on arbitrary
// input (FuzzCheckpointLoad proves this) and returns an error wrapping
// ErrCorrupt or ErrBadVersion on anything but a pristine snapshot.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading snapshot: %w", err)
	}
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("checkpoint: %w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("checkpoint: %w: bad magic", ErrCorrupt)
	}
	// Integrity before interpretation: the version field is only trusted
	// after the checksum over the whole file passes.
	n := binary.LittleEndian.Uint64(data[12:20])
	if uint64(len(data)) != headerLen+n+trailerLen {
		return nil, fmt.Errorf("checkpoint: %w: %d bytes on disk, header promises %d",
			ErrCorrupt, len(data), headerLen+n+trailerLen)
	}
	body := data[:headerLen+n]
	got := sha256.Sum256(body)
	if !bytes.Equal(got[:], data[headerLen+n:]) {
		return nil, fmt.Errorf("checkpoint: %w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("checkpoint: %w: snapshot is version %d, this build reads %d",
			ErrBadVersion, v, FormatVersion)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(body[headerLen:])).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: payload does not decode: %v", ErrCorrupt, err)
	}
	return &s, nil
}
