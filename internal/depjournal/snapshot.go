package depjournal

import (
	"fmt"
	"io"

	"fullview/internal/jsonlog"
)

// stagedDep is one deployment staged for snapshot encoding: the values
// compaction would write for it. Record values and mutation slices are
// never modified in place after they enter the journal (appends only
// extend, compaction replaces whole slices), so a stagedDep copied
// under the journal lock remains a consistent view after the lock is
// released.
type stagedDep struct {
	reg        Record
	muts       []Record
	unfoldable bool
}

// stageFoldable reports whether a staged deployment's mutations could
// fold into its registration.
func stageFoldable(d stagedDep, materialize MaterializeFunc) bool {
	return len(d.muts) > 0 && !d.unfoldable &&
		(len(d.reg.Cameras) > 0 || materialize != nil)
}

// stageLocked copies the per-deployment state for snapshot encoding.
// Caller holds j.mu; the copies stay valid after it is released.
func (j *Journal) stageLocked() []stagedDep {
	deps := make([]stagedDep, len(j.deps))
	for i, d := range j.deps {
		deps[i] = stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
	}
	return deps
}

// canonicalize reduces one staged deployment to its snapshot form: a
// single Folded registration when the mutations fold, the registration
// and mutations verbatim otherwise. This is the canonical shape of a
// deployment's record stream — compaction writes it, Snapshot streams
// it, and the per-deployment content digests hash it — so two replicas
// holding the same logical state produce identical bytes regardless of
// how their journal files got there (live appends, mirror batches, a
// snapshot warm, or any compaction history).
func canonicalize(d stagedDep, materialize MaterializeFunc) stagedDep {
	if stageFoldable(d, materialize) {
		if folded, ok := foldDeployment(d.reg, d.muts, materialize); ok {
			return stagedDep{reg: folded}
		}
		d.unfoldable = true
	}
	return d
}

// encodeDep writes one canonicalized deployment's record lines to w.
func encodeDep(w *jsonlog.Writer, st stagedDep) error {
	if err := w.Line(st.reg); err != nil {
		return fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
	}
	for i := range st.muts {
		if err := w.Line(st.muts[i]); err != nil {
			return fmt.Errorf("depjournal: encode record %s: %w", st.reg.ID, err)
		}
	}
	return nil
}

// encodeSnapshot writes the compacted snapshot image of deps to w:
// the journal header, then each deployment in canonical form. This is
// THE compaction format — Compact calls it to build the replacement
// file, Snapshot calls it to stream the same bytes to a peer — so a
// snapshot always replays through Open exactly like a freshly
// compacted journal. Returns the staged states as written (so
// compaction can commit them) and the record line count.
func encodeSnapshot(w *jsonlog.Writer, deps []stagedDep, materialize MaterializeFunc) ([]stagedDep, int64, error) {
	if err := w.Line(header{Version: Version, Kind: Kind}); err != nil {
		return nil, 0, fmt.Errorf("depjournal: encode header: %w", err)
	}
	out := make([]stagedDep, len(deps))
	for di, d := range deps {
		out[di] = canonicalize(d, materialize)
		if err := encodeDep(w, out[di]); err != nil {
			return nil, 0, err
		}
	}
	return out, w.Lines() - 1, nil
}

// Snapshot streams the journal's current compacted state to w — the
// byte-identical image Compact would write to disk — without pausing
// appends: the per-deployment state is copied under the lock (cheap —
// record values and slice headers, no camera-list deep copies), then
// the lock is released and encoding runs against the copy. Appends and
// compactions that land while a snapshot is streaming affect neither
// its consistency nor its content: the snapshot captures the journal
// as of the copy instant.
//
// Unlike compaction, Snapshot commits nothing — fold results and
// unfoldable discoveries are discarded, the file is untouched. Returns
// the number of bytes written.
func (j *Journal) Snapshot(w io.Writer) (int64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	deps := j.stageLocked()
	materialize := j.materialize
	j.mu.Unlock()

	lw := jsonlog.NewWriter(w)
	_, _, err := encodeSnapshot(lw, deps, materialize)
	return lw.Bytes(), err
}

// SnapshotID streams the snapshot image of a single deployment — the
// journal header plus that id's canonical record lines — with the same
// copy-under-lock discipline as Snapshot. The image replays through
// ParseSnapshot (or Open) on its own, which is what the anti-entropy
// reconciler fetches to repair one divergent deployment without
// shipping the whole journal. ErrNotFound is returned, with nothing
// written to w, when the id is not journaled.
func (j *Journal) SnapshotID(w io.Writer, id string) (int64, error) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return 0, ErrClosed
	}
	i, ok := j.ids[id]
	if !ok {
		j.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	d := j.deps[i]
	st := stagedDep{reg: d.reg, muts: d.muts, unfoldable: d.unfoldable}
	materialize := j.materialize
	j.mu.Unlock()

	lw := jsonlog.NewWriter(w)
	_, _, err := encodeSnapshot(lw, []stagedDep{st}, materialize)
	return lw.Bytes(), err
}

// ParseSnapshot decodes a complete snapshot image — the bytes Snapshot
// or SnapshotID streamed — into its records, and checks that every
// mutation follows a registration of its id, exactly as Open would.
// Unlike Open, a torn final line is an error here, not tolerance: a
// fetched snapshot that does not parse to its last byte was truncated
// in transfer and must be refused, never half-applied.
func ParseSnapshot(data []byte) ([]Record, error) {
	recs, _, good, err := parse(data)
	if err != nil {
		return nil, err
	}
	if good != int64(len(data)) {
		return nil, fmt.Errorf("%w: truncated snapshot (%d of %d bytes parse)", ErrCorrupt, good, len(data))
	}
	link := &Journal{ids: make(map[string]int)}
	for _, r := range recs {
		if err := link.link(r); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
