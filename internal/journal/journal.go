// Package journal is the durable round-state log that lets an aggregator
// survive a crash: an append-only, CRC-framed, fsync-on-commit write-ahead
// log plus snapshot+truncate compaction, built on the stdlib only.
//
// An aggregator appends one record per accepted mutation (register, upload,
// aggregate, ...) *before* acknowledging it to the caller, so any state a
// party has seen confirmed is recoverable. On restart, Open returns the
// last compaction snapshot (if any) and every committed record appended
// after it; a torn or corrupted tail — the expected artifact of a crash
// mid-append — is truncated away silently, recovering to the last committed
// record instead of erroring out. A corrupt record that committed records
// follow is not a torn tail: Open refuses it (ErrCorruptLog) rather than
// truncate acknowledged state away.
//
// On-disk format (wal.log and snapshot.bin share it):
//
//	record = type(1) | len(4, big-endian) | crc32c(4) | data(len)
//
// where the checksum covers the type byte, the length, and the data, so a
// bit flip anywhere in a record is detected. The snapshot file holds
// exactly one record and is replaced atomically (write-temp, fsync,
// rename, fsync dir), so it is either the old or the new snapshot, never a
// mix. Compaction truncates the log only after the snapshot rename is
// durable; a crash between the two replays the (idempotent) log records on
// top of the snapshot that already contains them.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	logName      = "wal.log"
	snapName     = "snapshot.bin"
	snapTempName = "snapshot.tmp"

	headerSize = 9 // type(1) + len(4) + crc(4)

	// MaxRecord bounds a single record so a corrupted length prefix cannot
	// drive a giant allocation; model fragments fit comfortably.
	MaxRecord = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrCorruptLog is returned by Open when a record fails its checksum but
// a valid record follows it. A crash can only tear the final record, so
// this is damage to committed records; Open leaves wal.log untouched for
// an operator to inspect instead of truncating them away.
var ErrCorruptLog = errors.New("journal: corrupt record followed by committed records")

// Record is one committed journal entry: an application-defined type tag
// and an opaque payload (the aggregator gob-encodes its events).
type Record struct {
	Type uint8
	Data []byte
}

// Options configures a journal.
type Options struct {
	// NoSync skips the per-append fsync. Records then survive process
	// crashes but not host crashes — acceptable for tests and benchmarks,
	// not for deployments.
	NoSync bool
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Snapshot is the payload of the last compaction snapshot, nil if the
	// journal has never been compacted.
	Snapshot []byte
	// Records are the committed records appended after the snapshot, in
	// append order.
	Records []Record
	// Truncated reports that a torn or corrupted tail was discarded — the
	// normal signature of a crash mid-append, not an error.
	Truncated bool
}

// Journal is an open write-ahead log. Methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	dir    string
	log    *os.File
	off    int64 // committed end of wal.log
	noSync bool
	tail   int // records appended since the last compaction
	closed bool
}

// Open opens (creating if needed) the journal in dir and recovers its
// contents. A torn tail is truncated in place so subsequent appends start
// from the last committed record; a corrupt record with valid records
// after it fails with ErrCorruptLog and changes nothing on disk.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec := &Recovered{}

	// Snapshot: replaced atomically by Compact, so a readable file is
	// complete; anything else is real corruption worth surfacing.
	snapPath := filepath.Join(dir, snapName)
	if b, err := os.ReadFile(snapPath); err == nil {
		r, n, err := decodeRecord(b)
		if err != nil || n != len(b) {
			return nil, nil, fmt.Errorf("journal: corrupt snapshot %s", snapPath)
		}
		rec.Snapshot = r.Data
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// A leftover temp file is a compaction that never committed.
	os.Remove(filepath.Join(dir, snapTempName))

	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	good := 0
	for good < len(b) {
		r, n, err := decodeRecord(b[good:])
		if err != nil {
			if followedByRecord(b[good:]) {
				return nil, nil, fmt.Errorf("%w: %s at offset %d: %v", ErrCorruptLog, logPath, good, err)
			}
			rec.Truncated = true
			break
		}
		rec.Records = append(rec.Records, r)
		good += n
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if good < len(b) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close() // the truncate error is the one worth reporting
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, log: f, off: int64(good), noSync: opts.NoSync, tail: len(rec.Records)}
	return j, rec, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// TailLen returns the number of records appended since the last compaction
// (including recovered ones) — the replay work a restart would do on top
// of the snapshot. Callers compact when it grows past their threshold.
func (j *Journal) TailLen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Append commits one record: framed write, then fsync (unless NoSync).
// When Append returns nil the record survives a crash; on error the log is
// rolled back to its previous committed length so later appends stay
// parseable.
func (j *Journal) Append(typ uint8, data []byte) error {
	return j.append(typ, data, !j.noSync)
}

// AppendNoSync commits one record without forcing it to disk, for advisory
// records (e.g. fetch-served events) whose loss in a crash is harmless.
func (j *Journal) AppendNoSync(typ uint8, data []byte) error {
	return j.append(typ, data, false)
}

func (j *Journal) append(typ uint8, data []byte, sync bool) error {
	if len(data) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", len(data))
	}
	frame := encodeRecord(typ, data)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if _, err := j.log.Write(frame); err != nil {
		// Roll back a partial write so the on-disk tail stays framed.
		j.log.Truncate(j.off)
		j.log.Seek(j.off, io.SeekStart)
		return fmt.Errorf("journal: append: %w", err)
	}
	if sync {
		if err := j.log.Sync(); err != nil {
			j.log.Truncate(j.off)
			j.log.Seek(j.off, io.SeekStart)
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.off += int64(len(frame))
	j.tail++
	return nil
}

// Compact atomically replaces the snapshot with the given state and
// truncates the log, bounding both disk usage and restart replay time. The
// snapshot must capture every record appended so far; a crash between the
// snapshot rename and the log truncation replays the old records on top of
// it, which the aggregator's idempotent replay tolerates.
func (j *Journal) Compact(snapshot []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	tmpPath := filepath.Join(j.dir, snapTempName)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err := tmp.Write(encodeRecord(0, snapshot)); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if !j.noSync {
		if err := tmp.Sync(); err != nil {
			_ = tmp.Close() // the fsync error is the one worth reporting
			os.Remove(tmpPath)
			return fmt.Errorf("journal: compact fsync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if err := os.Rename(tmpPath, filepath.Join(j.dir, snapName)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if !j.noSync {
		syncDir(j.dir)
	}
	if err := j.log.Truncate(0); err != nil {
		return fmt.Errorf("journal: compact truncate: %w", err)
	}
	if _, err := j.log.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.off = 0
	j.tail = 0
	return nil
}

// Close fsyncs (unless NoSync) and closes the log file. A failed final
// fsync is reported — records appended with AppendNoSync since the last
// sync may not have reached the disk — but the file is closed either way.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var syncErr error
	if !j.noSync {
		if err := j.log.Sync(); err != nil {
			syncErr = fmt.Errorf("journal: close fsync: %w", err)
		}
	}
	if err := j.log.Close(); err != nil && syncErr == nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return syncErr
}

// syncDir makes a rename durable; best-effort (some filesystems reject
// directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//lint:ignore errdiscipline directory fsync is best-effort: some filesystems reject it, and the snapshot rename is already ordered by the file fsync
		d.Sync()
		//lint:ignore errdiscipline read-only directory handle; nothing buffered to lose
		d.Close()
	}
}

// followedByRecord reports whether the frame at the front of b, which
// failed to decode, declares an end at which a valid record decodes — the
// evidence that it is mid-log damage rather than a torn final record.
func followedByRecord(b []byte) bool {
	if len(b) < headerSize {
		return false
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if n > MaxRecord {
		return false
	}
	end := headerSize + int(n)
	if end >= len(b) {
		return false
	}
	_, _, err := decodeRecord(b[end:])
	return err == nil
}

func encodeRecord(typ uint8, data []byte) []byte {
	frame := make([]byte, headerSize+len(data))
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:5], uint32(len(data)))
	h := crc32.New(crcTable)
	h.Write(frame[:5])
	h.Write(data)
	binary.BigEndian.PutUint32(frame[5:9], h.Sum32())
	copy(frame[headerSize:], data)
	return frame
}

// decodeRecord parses one record from the front of b, returning the bytes
// consumed. Any framing or checksum violation — including a record cut
// short by a crash — is an error; the caller treats it as the end of the
// committed log.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, errors.New("journal: torn header")
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if n > MaxRecord {
		return Record{}, 0, errors.New("journal: corrupt length")
	}
	end := headerSize + int(n)
	if len(b) < end {
		return Record{}, 0, errors.New("journal: torn record")
	}
	h := crc32.New(crcTable)
	h.Write(b[:5])
	h.Write(b[headerSize:end])
	if h.Sum32() != binary.BigEndian.Uint32(b[5:9]) {
		return Record{}, 0, errors.New("journal: checksum mismatch")
	}
	data := make([]byte, n)
	copy(data, b[headerSize:end])
	return Record{Type: b[0], Data: data}, end, nil
}
