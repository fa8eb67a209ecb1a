// Package durable is the one copy of the module's crash-safe file
// discipline, shared by every durable file the system keeps (the serve
// manifest, the coordinator journal, the shard round log and snapshot,
// the index artifact):
//
//   - Log, an append-only file whose length moves only by whole
//     acknowledged appends. Open replays it through a caller-supplied
//     function and cuts off whatever follows the valid prefix that
//     function reports; each Append is one positioned write plus one
//     fsync, and a failed one is rolled back to the last durable length,
//     so no later append ever lands behind its leftovers.
//   - WriteFile and Create, the atomic whole-file replace: temp file,
//     fsync, rename, directory fsync. A crash at any point leaves either
//     the old file or the new one under the final name, never a mix.
//
// The package knows nothing of frames, checksums or replay rules. Each
// format keeps its own codec and failure policy, and the bytes on disk
// are exactly the bytes the caller hands in.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// file is what a Log writes through. *os.File satisfies it; tests
// substitute one that fails a write halfway or refuses to sync.
type file interface {
	WriteAt(b []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
}

// Log is an append-only durable file: an optional fixed magic followed
// by records whose framing only the caller knows. It is not safe for
// concurrent use; callers serialize on their own lock.
type Log struct {
	f     file
	magic string
	size  int64 // durable length: the magic plus every acknowledged append
}

// Open opens the log at path, creating it if needed. A file that does not
// begin with magic (empty, foreign, or torn inside the magic itself) is
// reset to magic alone. Otherwise replay receives the bytes after magic
// and returns the length of their valid prefix; anything past it is a
// torn tail, truncated and fsynced away. torn counts the bytes dropped
// either way. Open never refuses a file for its contents: only I/O
// errors are returned.
func Open(path, magic string, replay func(body []byte) int) (l *Log, torn int64, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	l = &Log{f: f, magic: magic}
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		torn, err = int64(len(data)), l.Reset()
	} else {
		l.size = int64(len(magic) + replay(data[len(magic):]))
		if torn = int64(len(data)) - l.size; torn > 0 {
			if err = f.Truncate(l.size); err == nil {
				err = f.Sync()
			}
		}
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return l, torn, nil
}

// Append makes rec durable after the log's current end: one positioned
// write and one fsync. If either fails, the file is cut back to its last
// durable length and the error returned; the log stays usable, and the
// next append lands where rec would have.
func (l *Log) Append(rec []byte) error {
	_, err := l.f.WriteAt(rec, l.size)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// Best effort: if the rollback fails too, the leftovers sit past
		// the durable length, where replay reads them as a torn tail.
		if l.f.Truncate(l.size) == nil {
			_ = l.f.Sync()
		}
		return err
	}
	l.size += int64(len(rec))
	return nil
}

// Reset empties the log back to its magic, durably. Compaction calls it
// once the records it drops are covered by a durable snapshot.
func (l *Log) Reset() error {
	if _, err := l.f.WriteAt([]byte(l.magic), 0); err != nil {
		return err
	}
	if err := l.f.Truncate(int64(len(l.magic))); err != nil {
		return err
	}
	l.size = int64(len(l.magic))
	return l.f.Sync()
}

// Close releases the file. Every acknowledged append is already durable.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile atomically replaces path with data: it writes path+".tmp",
// fsyncs it, renames it over path and fsyncs the directory. Readers see
// the old contents or data, never a mix.
func WriteFile(path string, data []byte) error { return replace(path, data, nil) }

// Create atomically replaces path with data, as WriteFile does, and
// opens the result as a Log (without magic) for appends after data.
// fault, when non-nil, is an injected failure returned after the temp
// file is durable and before the rename: the crash window in which the
// old file survives whole beside the new temp file.
func Create(path string, data []byte, fault error) (*Log, error) {
	if err := replace(path, data, fault); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	return &Log{f: f, size: int64(len(data))}, nil
}

// replace is WriteFile with Create's fault window. A failure leaves at
// worst a temp file, which the next replace of path overwrites.
func replace(path string, data []byte, fault error) error {
	tmp := path + ".tmp"
	if err := writeSync(tmp, data); err != nil {
		return err
	}
	if fault != nil {
		return fault
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// writeSync writes data to path and fsyncs it before closing.
func writeSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so an entry just renamed into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
