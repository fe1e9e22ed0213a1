// Package jsonlog is the one durable JSONL log every fvcd journal is
// built on: internal/checkpoint (trial results), internal/jobs (band
// results of survey jobs) and internal/depjournal (deployments) are
// thin codecs over it. It owns the durability rules so they are stated
// and tested once:
//
//   - Replay: line 1 is a header, every later line one record. Blank
//     lines are skipped. A defective final line is a torn append (a
//     crash mid-write persists only a prefix of the line): it is
//     dropped and the intact prefix length reported. Any earlier
//     defect is corruption and refused. Each line is one JSON document;
//     trailing data after it is a defect.
//   - Open for append: the torn tail is truncated away and an intact
//     final line missing its newline is terminated, so the next append
//     always starts a fresh line.
//   - Append: a batch of lines goes out in one write and one fsync; on
//     failure the file is truncated back so a partial batch can never
//     become interior corruption.
//   - Rewrite: temp file in the same directory, fsync, rename over the
//     log, directory fsync, then reopen the append handle.
package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// maxLine is the longest line Replay accepts; a longer one is
// corruption wherever it sits.
const maxLine = 64 << 20

// Codec describes one log format: the header type H and the record
// type R every later line decodes into.
type Codec[H, R any] struct {
	// DisallowUnknownFields refuses lines carrying fields H or R do not
	// declare; otherwise they are ignored.
	DisallowUnknownFields bool
	// CheckHeader validates the decoded header (nil: any header).
	CheckHeader func(*H) error
	// CheckRecord validates a decoded record (nil: any record). A
	// failure counts like a decode failure: dropped as torn on the
	// final line, corruption anywhere else.
	CheckRecord func(*R) error
}

// Replay decodes a log image: the header line into *hdr, then each
// record line, in file order, into apply. good is the byte length of
// the intact prefix; it is less than len(data) exactly when a torn
// final line was dropped. An error from apply is corruption wherever
// the line sits. Errors name the offending line and carry no sentinel;
// each codec wraps them in its own.
func (c Codec[H, R]) Replay(data []byte, hdr *H, apply func(R) error) (good int64, err error) {
	if len(data) == 0 {
		return 0, errors.New("empty log")
	}
	line, next := nextLine(data, 0)
	if len(line) > maxLine {
		return 0, fmt.Errorf("line 1: longer than %d bytes", maxLine)
	}
	if err := c.decode(line, hdr); err != nil {
		return 0, fmt.Errorf("bad header: %v", err)
	}
	if c.CheckHeader != nil {
		if err := c.CheckHeader(hdr); err != nil {
			return 0, fmt.Errorf("bad header: %v", err)
		}
	}
	good = int64(next)
	for lineNo := 2; next < len(data); lineNo++ {
		line, next = nextLine(data, next)
		if len(line) > maxLine {
			return 0, fmt.Errorf("line %d: longer than %d bytes", lineNo, maxLine)
		}
		if len(bytes.TrimSpace(line)) > 0 {
			var rec R
			derr := c.decode(line, &rec)
			if derr == nil && c.CheckRecord != nil {
				derr = c.CheckRecord(&rec)
			}
			if derr != nil {
				if next >= len(data) {
					break // torn final line
				}
				return 0, fmt.Errorf("line %d: %v", lineNo, derr)
			}
			if err := apply(rec); err != nil {
				return 0, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		good = int64(next)
	}
	return good, nil
}

// nextLine returns the line starting at off (without its newline) and
// the offset just past it, capped at len(data).
func nextLine(data []byte, off int) (line []byte, next int) {
	i := bytes.IndexByte(data[off:], '\n')
	if i < 0 {
		return data[off:], len(data)
	}
	return data[off : off+i], off + i + 1
}

// decode reads exactly one JSON document from line into v.
func (c Codec[H, R]) decode(line []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	if c.DisallowUnknownFields {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// Writer encodes values as JSONL lines onto an io.Writer, counting the
// lines and bytes written.
type Writer struct {
	enc   *json.Encoder
	out   countWriter
	lines int64
}

// countWriter counts the bytes passed through to w.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewWriter returns a Writer onto w.
func NewWriter(w io.Writer) *Writer {
	lw := &Writer{out: countWriter{w: w}}
	lw.enc = json.NewEncoder(&lw.out)
	return lw
}

// Line writes v as one JSON line.
func (w *Writer) Line(v any) error {
	if err := w.enc.Encode(v); err != nil {
		return err
	}
	w.lines++
	return nil
}

// Lines returns the number of lines written.
func (w *Writer) Lines() int64 { return w.lines }

// Bytes returns the number of bytes written.
func (w *Writer) Bytes() int64 { return w.out.n }

// Lines encodes vs as consecutive JSON lines.
func Lines[T any](vs ...T) ([]byte, error) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range vs {
		if err := w.Line(vs[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// File is an open log's append handle.
type File struct {
	path string
	f    *os.File
	size int64
}

// ErrClosed reports an append to a closed File.
var ErrClosed = errors.New("jsonlog: log is closed")

// Create starts a fresh log at path holding just header (one or more
// encoded lines), fsynced before it returns. An existing file is
// truncated; on failure the file is removed.
func Create(path string, header []byte) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create: %w", err)
	}
	lf := &File{path: path, f: f}
	if err := lf.Append(header); err != nil {
		lf.Close()
		os.Remove(path)
		return nil, err
	}
	return lf, nil
}

// OpenAppend opens a replayed log for appending. good is the intact
// prefix Replay reported: anything past it (a torn final line) is
// truncated away, and an intact final line that lacks its newline is
// terminated, so the next append cannot concatenate onto it or land
// after torn bytes.
func OpenAppend(path string, good int64) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	lf := &File{path: path, f: f, size: good}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("truncate torn line: %w", err)
	}
	if good > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, good-1); err != nil {
			f.Close()
			return nil, fmt.Errorf("read final byte: %w", err)
		}
		if last[0] != '\n' {
			if _, err := f.Write([]byte{'\n'}); err != nil {
				f.Close()
				return nil, fmt.Errorf("terminate final line: %w", err)
			}
			lf.size++
		}
	}
	return lf, nil
}

// Append durably writes a batch of encoded lines: one write, one
// fsync. On failure the file is truncated back to its previous size.
func (lf *File) Append(batch []byte) error {
	if lf.f == nil {
		return ErrClosed
	}
	if _, err := lf.f.Write(batch); err != nil {
		_ = lf.f.Truncate(lf.size)
		return fmt.Errorf("write: %w", err)
	}
	if err := lf.f.Sync(); err != nil {
		_ = lf.f.Truncate(lf.size)
		return fmt.Errorf("fsync: %w", err)
	}
	lf.size += int64(len(batch))
	return nil
}

// Rewrite atomically replaces the log's contents with image (see
// WriteAtomic) and moves the append handle onto the new file. If the
// handle cannot be reopened the File is left closed.
func (lf *File) Rewrite(image []byte) error {
	if lf.f == nil {
		return ErrClosed
	}
	if err := WriteAtomic(lf.path, image); err != nil {
		return err
	}
	// The rename replaced the inode the old handle points at.
	f, err := os.OpenFile(lf.path, os.O_RDWR|os.O_APPEND, 0o644)
	lf.f.Close()
	lf.f = nil
	if err != nil {
		return fmt.Errorf("reopen after rewrite: %w", err)
	}
	lf.f, lf.size = f, int64(len(image))
	return nil
}

// Size returns the log file's current byte size.
func (lf *File) Size() int64 { return lf.size }

// Close closes the append handle. Closing twice is a no-op.
func (lf *File) Close() error {
	if lf.f == nil {
		return nil
	}
	err := lf.f.Close()
	lf.f = nil
	return err
}

// WriteAtomic replaces path with data: temp file in the destination
// directory, fsync, rename over path, then fsync the directory so the
// rename survives power loss. A crash at any instant leaves either the
// old file or the new one, never a mix.
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	name := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(name, path)
	}
	if err != nil {
		os.Remove(name)
		return fmt.Errorf("atomic write: %w", err)
	}
	// Best effort: the data is already durable under one name or the
	// other, and some filesystems refuse to fsync a directory.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
