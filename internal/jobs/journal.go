package jobs

import (
	"errors"
	"fmt"
	"os"

	"fullview/internal/core"
	"fullview/internal/faultinject"
	"fullview/internal/jsonlog"
)

// The job journal format: one JSONL file per job under <Dir>. Line 1 is
// the header (format version, job id, creation time, and the full spec
// — everything needed to re-derive the job's work after a crash); every
// further line is one record: a completed band's RegionStats, or the
// terminal state. The durability rules are internal/jsonlog's: one
// write + fsync per record, so a kill -9 loses at most the band whose
// completion was never acknowledged; replay drops a torn final line and
// refuses interior damage. Once a job reaches a terminal state its file
// is compacted to header + terminal record with jsonlog's atomic write.
const (
	// Version is the job journal format version.
	Version = 1
	// FileKind tags a job journal file's header line.
	FileKind = "fvcd/job"
	// fileSuffix is the per-job journal filename suffix.
	fileSuffix = ".jsonl"
)

// ErrCorrupt reports a job journal file damaged beyond the
// torn-final-line tolerance. Replay quarantines such files (renamed
// *.corrupt) instead of refusing to start the daemon.
var ErrCorrupt = errors.New("jobs: journal corrupt")

// header is the first line of a job journal file.
type header struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	ID        string `json:"id"`
	CreatedNS int64  `json:"createdNs"`
	Spec      Spec   `json:"spec"`
}

func (h header) validate() error {
	if h.Version != Version || h.Kind != FileKind {
		return fmt.Errorf("unsupported header version=%d kind=%q", h.Version, h.Kind)
	}
	if h.ID == "" {
		return errors.New("header has no job id")
	}
	return h.Spec.validate()
}

// record is one post-header journal line: exactly one of a completed
// band (Band + Stats) or the terminal state (State, plus Error or
// Result and the completion time for TTL accounting across restarts).
type record struct {
	Band       *int              `json:"band,omitempty"`
	Stats      *core.RegionStats `json:"stats,omitempty"`
	State      State             `json:"state,omitempty"`
	Error      string            `json:"error,omitempty"`
	Result     *Result           `json:"result,omitempty"`
	FinishedNS int64             `json:"finishedNs,omitempty"`
}

func (r *record) validate(spec Spec) error {
	band := r.Band != nil
	term := r.State != ""
	switch {
	case band == term:
		return errors.New("record must be exactly one of band or terminal")
	case band:
		if r.Stats == nil {
			return fmt.Errorf("band %d record has no stats", *r.Band)
		}
		if *r.Band < 0 || *r.Band >= spec.Bands() {
			return fmt.Errorf("band %d out of range [0, %d)", *r.Band, spec.Bands())
		}
	default:
		switch r.State {
		case StateDone:
			if r.Result == nil || len(r.Result.Stats) != spec.Slots() {
				return fmt.Errorf("done record needs a result with %d stats", spec.Slots())
			}
		case StateFailed, StateCancelled:
		default:
			return fmt.Errorf("terminal record has non-terminal state %q", r.State)
		}
	}
	return nil
}

// codec is the job journal format. Unknown fields are refused: the
// reader and writer are the same binary.
var codec = jsonlog.Codec[header, record]{
	DisallowUnknownFields: true,
	CheckHeader:           (*header).validate,
}

// parseJob decodes one job journal image: the header, the completed
// bands, and the terminal record if the job finished. good is the byte
// length of the intact prefix — the final line may be torn (a crash
// mid-append) and is then dropped so the caller can truncate; any
// earlier malformed line, or a record after the terminal one, is
// ErrCorrupt.
func parseJob(data []byte) (hdr header, bands map[int]core.RegionStats, term *record, good int64, err error) {
	bands = make(map[int]core.RegionStats)
	good, err = codec.Replay(data, &hdr, func(rec record) error {
		// A record that decodes but violates the schema — band out of
		// range, record after the terminal one — cannot come from a torn
		// write of this format's writer; that is corruption wherever it
		// sits.
		if err := rec.validate(hdr.Spec); err != nil {
			return err
		}
		if term != nil {
			return errors.New("record after terminal record")
		}
		if rec.Band != nil {
			bands[*rec.Band] = *rec.Stats
		} else {
			term = &rec
		}
		return nil
	})
	if err != nil {
		return hdr, nil, nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return hdr, bands, term, good, nil
}

// jobFile is one job's open journal handle.
type jobFile struct {
	path string
	log  *jsonlog.File
	hdr  header
}

// createJobFile starts a fresh job journal with its header line,
// fsynced before returning. The faultinject.JobJournalWrite point fires
// before the write.
func createJobFile(path string, hdr header) (*jobFile, error) {
	if err := faultinject.Fire(faultinject.JobJournalWrite); err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	line, err := jsonlog.Lines(hdr)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode header: %w", err)
	}
	log, err := jsonlog.Create(path, line)
	if err != nil {
		return nil, fmt.Errorf("jobs: create journal: %w", err)
	}
	return &jobFile{path: path, log: log, hdr: hdr}, nil
}

// reopenJobFile opens an existing (replayed) job journal for appending,
// repairing its tail first (jsonlog.OpenAppend) so a later append can
// neither land after torn bytes nor concatenate onto an unterminated
// final record.
func reopenJobFile(path string, hdr header, good int64) (*jobFile, error) {
	log, err := jsonlog.OpenAppend(path, good)
	if err != nil {
		return nil, fmt.Errorf("jobs: reopen journal: %w", err)
	}
	return &jobFile{path: path, log: log, hdr: hdr}, nil
}

// append durably writes one record (one write + fsync, truncated back
// on failure). The faultinject.JobJournalWrite point fires before the
// write.
func (jf *jobFile) append(rec record) error {
	if err := faultinject.Fire(faultinject.JobJournalWrite); err != nil {
		return fmt.Errorf("jobs: write record: %w", err)
	}
	line, err := jsonlog.Lines(rec)
	if err != nil {
		return fmt.Errorf("jobs: encode record: %w", err)
	}
	if err := jf.log.Append(line); err != nil {
		return fmt.Errorf("jobs: append record: %w", err)
	}
	return nil
}

// compact rewrites the journal as header + terminal record only (the
// band records are subsumed by the result) with an atomic write, and
// closes the append handle — a terminal job never writes again.
func (jf *jobFile) compact(term record) error {
	image, err := jsonlog.Lines[any](jf.hdr, term)
	if err != nil {
		return fmt.Errorf("jobs: encode compaction: %w", err)
	}
	if err := jsonlog.WriteAtomic(jf.path, image); err != nil {
		return fmt.Errorf("jobs: compact: %w", err)
	}
	jf.close()
	return nil
}

func (jf *jobFile) close() { jf.log.Close() }

func (jf *jobFile) remove() {
	jf.close()
	os.Remove(jf.path)
}
